from __future__ import annotations

import os
import random
import sys

import pytest

from normalcol.coloring import abnormal_set, is_normal, is_proper
from normalcol.generate import enumerate_cubic
from normalcol.graphs import CubicGraph, _cut_sets, catalog, connectivity_report, is_connected
from normalcol.solver import (
    SearchConfig,
    SolveStatus,
    has_normal_k,
    min_abnormal,
    normal_chromatic_index,
    scan_no_single_abnormal,
)

from conftest import (
    bridged_multigraph,
    disjoint_union,
    domino_multigraph,
    exhaustive_oracle,
    random_bridge_tree,
    random_bridged_multigraph,
    random_cubic_multigraph,
    triple_edge,
)

# exact minimum of the bridged doubled-triangle multigraph, fixed by the
# exhaustive oracle before the branch and bound existed
BRIDGED_MIN = 4


def test_k4_min_zero(k4):
    result = min_abnormal(k4)
    assert result.status is SolveStatus.OPTIMAL
    assert result.best_count == 0
    assert is_normal(k4, result.witness)


def test_petersen_min_zero(petersen):
    result = min_abnormal(petersen)
    assert result.best_count == 0
    assert is_proper(petersen, result.witness, 5)
    assert is_normal(petersen, result.witness)


def test_bridged_multigraph_min():
    g = bridged_multigraph()
    result = min_abnormal(g)
    assert result.status is SolveStatus.OPTIMAL
    assert result.best_count == BRIDGED_MIN
    assert result.best_count >= 2  # a single abnormal edge is impossible
    assert len(abnormal_set(g, result.witness)) == BRIDGED_MIN


def test_triple_edge_multigraph():
    result = min_abnormal(triple_edge())
    assert result.best_count == 0  # both palettes coincide, all edges poor


@pytest.mark.parametrize(
    "graph",
    [catalog("k4"), catalog("k33"), catalog("q3"), bridged_multigraph(),
     domino_multigraph(), triple_edge()],
    ids=["k4", "k33", "q3", "bridged", "domino", "triple"],
)
def test_oracle_equivalence(graph):
    oracle = exhaustive_oracle(graph)
    result = min_abnormal(graph)
    assert oracle.status is result.status is SolveStatus.OPTIMAL
    assert oracle.best_count == result.best_count
    assert len(abnormal_set(graph, oracle.witness)) == oracle.best_count


def test_oracle_equivalence_k4_colors():
    g = catalog("q3")
    assert exhaustive_oracle(g, k=4).best_count == min_abnormal(g, SearchConfig(k=4)).best_count


def test_infeasible_below_three_colors(k4):
    with pytest.raises(ValueError):
        min_abnormal(k4, SearchConfig(k=2))
    assert exhaustive_oracle(k4, k=2).status is SolveStatus.INFEASIBLE


def test_petersen_not_4_normal(petersen):
    assert has_normal_k(petersen, 4) is None
    assert has_normal_k(petersen, 5) is not None


def test_petersen_no_proper_3_coloring(petersen):
    # class 2 graph: no proper 3-edge-coloring at all
    assert min_abnormal(petersen, SearchConfig(k=3)).status is SolveStatus.INFEASIBLE


def test_three_colorable_normal_at_three(q3, k33):
    for g in (q3, k33):
        witness = has_normal_k(g, 3)
        assert witness is not None
        assert is_normal(g, witness)


def test_normal_chromatic_index(petersen, k4, k33):
    assert normal_chromatic_index(k4) == 3
    assert normal_chromatic_index(k33) == 3
    assert normal_chromatic_index(petersen) == 5


def test_normal_chromatic_index_multigraph_rejected():
    # k = m admits every coloring there is, so None is exact
    assert normal_chromatic_index(bridged_multigraph()) is None
    assert normal_chromatic_index(triple_edge()) == 3


def test_monotonicity_adding_colors(q3, k33):
    for g in (q3, k33, bridged_multigraph()):
        r4 = min_abnormal(g, SearchConfig(k=4))
        r5 = min_abnormal(g, SearchConfig(k=5))
        if r4.status is SolveStatus.OPTIMAL:
            assert r5.best_count <= r4.best_count


def test_determinism(petersen):
    a = min_abnormal(petersen)
    b = min_abnormal(petersen)
    assert a.witness == b.witness
    assert a.nodes_explored == b.nodes_explored


def test_search_order_pinned(petersen):
    # exact node counts fix the branch-edge rule, its tie-break, the
    # pre-colored star and the color-introduction order; any change to the
    # search order moves at least one of them
    assert min_abnormal(petersen).nodes_explored == 12096
    assert min_abnormal(petersen, SearchConfig(k=4)).nodes_explored == 5652
    # the one bridged class at n = 10 is split into its two bridge-free
    # pieces; the 18 bridgeless ones are searched whole, as before
    nodes = {True: [], False: []}
    for g in enumerate_cubic(10, distinct=True):
        nodes[connectivity_report(g).bridgeless].append(min_abnormal(g).nodes_explored)
    assert sum(nodes[True]) == 21749
    assert nodes[False] == [170]
    result = min_abnormal(bridged_multigraph())
    assert (result.best_count, result.nodes_explored) == (BRIDGED_MIN, 8)


def test_search_deeper_than_the_recursion_limit():
    # one bridgeless piece of 1,050 edges, more than the default limit of
    # 1,000 frames; the search must neither crash nor leave the limit raised
    prism = catalog("prism", 350)
    depth = sys.getrecursionlimit()
    result = min_abnormal(prism)
    assert sys.getrecursionlimit() == depth
    assert (result.status, result.best_count) == (SolveStatus.OPTIMAL, 0)
    assert is_proper(prism, result.witness, 5)
    assert is_normal(prism, result.witness)


def test_node_limit(petersen):
    for limit in (0, 1, 5, 100):
        result = min_abnormal(petersen, SearchConfig(node_limit=limit))
        assert result.status is SolveStatus.LIMIT
        assert result.nodes_explored == limit  # not the node that tripped it


def test_node_limit_after_a_normal_coloring_is_optimal(q3):
    # q3 finds a normal coloring within 10 of its 21 nodes; nothing beats 0
    full = min_abnormal(q3)
    assert full.nodes_explored == 21
    for cfg in (SearchConfig(node_limit=10), SearchConfig(abnormal_budget=0, node_limit=10)):
        result = min_abnormal(q3, cfg)
        assert (result.status, result.best_count, result.nodes_explored) == (
            SolveStatus.OPTIMAL, 0, 10,
        )
        assert result.witness == full.witness
        assert is_normal(q3, result.witness)
    assert min_abnormal(q3, SearchConfig(node_limit=5)).status is SolveStatus.LIMIT


def test_node_limit_keeps_sound_incumbent(petersen):
    result = min_abnormal(petersen, SearchConfig(node_limit=100))
    assert result.status is SolveStatus.LIMIT
    assert result.witness is not None
    assert is_proper(petersen, result.witness, 5)
    assert len(abnormal_set(petersen, result.witness)) == result.best_count


def test_solver_on_disconnected_graph(petersen):
    from normalcol.constructions import disjoint_copies

    two = disjoint_copies(petersen, 2)
    result = min_abnormal(two)
    assert result.best_count == 0
    assert is_proper(two, result.witness, 5)


def test_budget_result_still_exact(q3):
    # with a budget the reported optimum is still exact when attained
    result = min_abnormal(q3, SearchConfig(abnormal_budget=0))
    assert result.best_count == 0


def test_scan_small_graphs():
    report = scan_no_single_abnormal(enumerate_cubic(6, distinct=True))
    assert len(report.rows) == 2
    assert report.distribution() == {0: 2}
    assert report.single_abnormal_ids() == []
    for row in report.rows:
        assert row.status is SolveStatus.OPTIMAL
        assert row.bridgeless


def test_scan_includes_multigraph_stream():
    report = scan_no_single_abnormal([catalog("k4"), bridged_multigraph()])
    assert report.rows[1].min_abnormal == BRIDGED_MIN
    assert report.rows[1].min_abnormal >= 2
    assert report.single_abnormal_ids() == []


def test_scan_tsv_shape():
    report = scan_no_single_abnormal([catalog("k4")])
    lines = report.to_tsv().splitlines()
    assert lines[0].split("\t") == [
        "graph_id", "n", "m", "bridgeless", "cyc4", "min_abnormal", "nodes", "millis",
    ]
    assert lines[1].split("\t")[-1] == "-"  # timing suppressed by default
    assert report.to_tsv(timing=True).splitlines()[1].split("\t")[-1].isdigit()
    obj = report.to_json_obj()
    assert obj["rows"][0]["witness"] is not None
    assert obj["single_abnormal"] == []


def test_witness_soundness_over_stream():
    for graph in enumerate_cubic(6, distinct=True):
        result = min_abnormal(graph)
        assert is_proper(graph, result.witness, 5)
        assert len(abnormal_set(graph, result.witness)) == result.best_count


def test_oracle_equivalence_labeled_sample():
    # labeled (non-canonical) vertex orders exercise the solver's symmetry
    # reductions from arbitrary angles
    sample = [g for i, g in enumerate(enumerate_cubic(6)) if i % 7 == 0]
    assert len(sample) == 10
    for graph in sample:
        assert exhaustive_oracle(graph).best_count == min_abnormal(graph).best_count


def test_three_edge_colorable_catalog_bridgeless():
    # a cubic graph with a bridge is not 3-edge-colorable, so every catalog
    # entry admitting a normal 3-coloring must be bridgeless
    from normalcol.graphs import connectivity_report

    for name, params in (("k4", ()), ("q3", ()), ("k33", ()), ("prism", (6,))):
        g = catalog(name, *params)
        if has_normal_k(g, 3) is not None:
            assert connectivity_report(g).bridgeless


# colors checked per vertex count: the oracle has no symmetry reduction, so
# its cost grows with k much faster than with n
_DIFFERENTIAL_KS = {2: (3, 4, 5), 4: (3, 4, 5), 6: (3, 4, 5), 8: (3, 4), 10: (3,), 12: (3,)}


def _check_against_oracle(graph, k):
    """min_abnormal agrees with the exhaustive oracle at budgets None, 0
    and 2, and every witness is proper with best_count abnormal edges."""
    oracle = exhaustive_oracle(graph, k=k)
    for budget in (None, 0, 2):
        result = min_abnormal(graph, SearchConfig(k=k, abnormal_budget=budget))
        within = oracle.status is SolveStatus.OPTIMAL and (
            budget is None or oracle.best_count <= budget
        )
        if within:
            assert result.status is SolveStatus.OPTIMAL
            assert result.best_count == oracle.best_count
            assert is_proper(graph, result.witness, k)
            assert len(abnormal_set(graph, result.witness)) == result.best_count
        else:
            assert result.status is SolveStatus.INFEASIBLE
            assert (result.best_count, result.witness) == (-1, None)


def test_differential_random_multigraphs():
    rng = random.Random(20211)
    graphs = []
    for n in _DIFFERENTIAL_KS:
        graphs += [random_cubic_multigraph(rng, n) for _ in range(3)]
        if n >= 4:
            parts = (random_cubic_multigraph(rng, 2), random_cubic_multigraph(rng, n - 2))
            graphs.append(disjoint_union(*parts))
    for left, right in ((2, 2), (2, 2), (2, 2), (2, 4), (2, 4), (4, 4)):
        graphs.append(random_bridged_multigraph(rng, left, right))
    assert any(g.has_parallel_edges() for g in graphs)
    assert any(not is_connected(g) for g in graphs)
    for graph in graphs:
        for k in _DIFFERENTIAL_KS[graph.n]:
            _check_against_oracle(graph, k)


# (block sizes, bridges between blocks) of multi-piece graphs; each is
# drawn twice, and the glued witnesses are checked as they come
_BRIDGE_TREES = [
    ([3, 3], [(0, 1)]),                                 # 6 vertices, 2 pieces
    ([3, 2, 3], [(0, 1), (1, 2)]),                      # chain of 3 blocks
    ([3, 4, 3], [(0, 1), (1, 2)]),
    ([3, 2, 2, 3], [(0, 1), (1, 2), (2, 3)]),           # chain of 4 blocks
    ([1, 3, 3, 3], [(0, 1), (0, 2), (0, 3)]),           # a vertex of 3 bridges
]


def test_differential_bridge_pieces():
    rng = random.Random(20216)
    graphs = []
    for sizes, bridges in _BRIDGE_TREES:
        graphs += [random_bridge_tree(rng, sizes, bridges) for _ in range(2)]
    bridged = random_bridge_tree(rng, [3, 3], [(0, 1)])
    graphs.append(disjoint_union(bridged, random_cubic_multigraph(rng, 2)))
    assert any(not is_connected(g) for g in graphs)
    for graph in graphs:
        assert not connectivity_report(graph).bridgeless
        for k in _DIFFERENTIAL_KS[graph.n]:
            _check_against_oracle(graph, k)
    # k = 5 costs the oracle about 2 s at 8 vertices, so it runs on one
    # chain of 3 blocks only; the 6-vertex graphs of 2 pieces get it above
    chain = graphs[2]
    assert chain.n == 8 and _cut_sets(chain)[1].count(0) == 2
    _check_against_oracle(chain, 5)


def test_node_limit_on_pieces():
    # a chain of 4 blocks, 4 pieces; every limit below the full solve's
    # nodes stops in some piece
    graph = random_bridge_tree(random.Random(7), [3, 2, 2, 3], [(0, 1), (1, 2), (2, 3)])
    full = min_abnormal(graph)
    assert full.status is SolveStatus.OPTIMAL and full.best_count >= 2
    outcomes = set()
    for limit in range(full.nodes_explored + 2):
        result = min_abnormal(graph, SearchConfig(node_limit=limit))
        assert result.nodes_explored <= limit
        outcomes.add((result.status, result.witness is not None))
        if limit >= full.nodes_explored:
            assert result == full
        elif result.status is SolveStatus.OPTIMAL:
            # the pieces the limit stopped had found normal colorings
            assert result.best_count == full.best_count
        else:
            assert result.status is SolveStatus.LIMIT
        if result.witness is not None:
            assert is_proper(graph, result.witness, 5)
            assert len(abnormal_set(graph, result.witness)) == result.best_count
    # stopped in an earlier piece: no witness; in the last piece after it
    # found a coloring: a witness of the whole graph
    assert {(SolveStatus.LIMIT, False), (SolveStatus.LIMIT, True)} <= outcomes


def test_differential_eight_colors():
    # palettes that hold a color past 7; the oracle needs about 0.1 s per
    # 4-vertex graph at k = 8 and about 20 s per 6-vertex one (below)
    rng = random.Random(20218)
    graphs = [domino_multigraph(), triple_edge()]
    graphs += [random_cubic_multigraph(rng, 4) for _ in range(4)]
    for graph in graphs:
        _check_against_oracle(graph, 8)
    graph = domino_multigraph()
    assert {min_abnormal(graph, SearchConfig(k=k)).best_count for k in range(6, 13)} == {0}


@pytest.mark.skipif(not os.environ.get("NORMALCOL_SLOW"), reason="about 80 s; set NORMALCOL_SLOW=1")
def test_differential_eight_colors_six_vertices():
    rng = random.Random(20218)
    graphs = [bridged_multigraph()] + [random_cubic_multigraph(rng, 6) for _ in range(3)]
    for graph in graphs:
        _check_against_oracle(graph, 8)


# 8 vertices, one parallel pair and the bridge 2-3; no k makes it normal.
# The minimum at k = 5 is the exhaustive oracle's (1.4 M nodes, about 2 s)
_NO_NORMAL_8 = CubicGraph(8, (
    (1, 4), (0, 4), (0, 5), (2, 7), (6, 7), (6, 7),
    (1, 3), (0, 1), (4, 5), (2, 3), (2, 6), (3, 5),
))


def test_multigraph_without_normal_coloring_past_seven_colors():
    minima = []
    for k in (5, 7, 8, 12):
        result = min_abnormal(_NO_NORMAL_8, SearchConfig(k=k))
        assert result.status is SolveStatus.OPTIMAL
        assert is_proper(_NO_NORMAL_8, result.witness, k)
        assert len(abnormal_set(_NO_NORMAL_8, result.witness)) == result.best_count
        minima.append(result.best_count)
    assert minima == [4, 2, 2, 2]
    assert normal_chromatic_index(_NO_NORMAL_8) is None
