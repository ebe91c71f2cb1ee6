from __future__ import annotations

import random

import pytest

from normalcol.coloring import abnormal_set, is_normal, is_proper
from normalcol.errors import SizeLimitError
from normalcol.generate import enumerate_cubic
from normalcol.graphs import CubicGraph, catalog, is_connected
from normalcol.solver import (
    SearchConfig,
    SolveStatus,
    exhaustive_oracle,
    has_normal_k,
    min_abnormal,
    normal_chromatic_index,
    scan_no_single_abnormal,
)

from conftest import bridged_multigraph, domino_multigraph, triple_edge

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


def test_oracle_size_limit(petersen):
    with pytest.raises(SizeLimitError):
        exhaustive_oracle(petersen, max_edges=12)


def test_infeasible_below_three_colors(k4):
    assert min_abnormal(k4, SearchConfig(k=2)).status is SolveStatus.INFEASIBLE
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
    with pytest.raises(ValueError, match="up to 7"):
        normal_chromatic_index(bridged_multigraph())


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
    assert sum(min_abnormal(g).nodes_explored for g in enumerate_cubic(10, distinct=True)) == 31771
    result = min_abnormal(bridged_multigraph())
    assert (result.best_count, result.nodes_explored) == (BRIDGED_MIN, 376)


def test_node_limit(petersen):
    result = min_abnormal(petersen, SearchConfig(node_limit=5))
    assert result.status is SolveStatus.LIMIT


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


def test_scan_parallel_merge_matches_serial():
    graphs = list(enumerate_cubic(6, distinct=True)) + [catalog("q3")]
    serial = scan_no_single_abnormal(graphs, jobs=1)
    parallel = scan_no_single_abnormal(graphs, jobs=2)
    strip = lambda rep: [
        (r.graph_id, r.n, r.m, r.bridgeless, r.cyc4, r.min_abnormal, r.nodes)
        for r in rep.rows
    ]
    assert strip(serial) == strip(parallel)


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


def _random_cubic_multigraph(rng: random.Random, n: int) -> CubicGraph:
    """Configuration model: pair 3n stubs uniformly, redraw on a loop.
    Parallel edges and several components are kept."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = tuple((stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2))
        if all(u != v for u, v in edges):
            return CubicGraph(n, edges)


def _disjoint_union(g: CubicGraph, h: CubicGraph) -> CubicGraph:
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    return CubicGraph(g.n + h.n, g.edges + shifted)


def _random_bridged_multigraph(rng: random.Random, left: int, right: int) -> CubicGraph:
    """Two configuration-model blocks, one random edge of each subdivided,
    the two subdivision vertices joined by a bridge (minimum >= 2 at k = 5)."""
    edges: list[tuple[int, int]] = []
    hubs = []
    off = 0
    for nb in (left, right):
        block = list(_random_cubic_multigraph(rng, nb).edges)
        a, b = block.pop(rng.randrange(len(block)))
        hub = off + nb
        edges += [(u + off, v + off) for u, v in block] + [(a + off, hub), (b + off, hub)]
        hubs.append(hub)
        off += nb + 1
    edges.append((hubs[0], hubs[1]))
    return CubicGraph(off, tuple(edges))


# colors checked per vertex count: the oracle has no symmetry reduction, so
# its cost grows with k much faster than with n
_DIFFERENTIAL_KS = {2: (3, 4, 5), 4: (3, 4, 5), 6: (3, 4, 5), 8: (3, 4), 10: (3,), 12: (3,)}


def test_differential_random_multigraphs():
    rng = random.Random(20211)
    graphs = []
    for n in _DIFFERENTIAL_KS:
        graphs += [_random_cubic_multigraph(rng, n) for _ in range(3)]
        if n >= 4:
            parts = (_random_cubic_multigraph(rng, 2), _random_cubic_multigraph(rng, n - 2))
            graphs.append(_disjoint_union(*parts))
    for left, right in ((2, 2), (2, 2), (2, 2), (2, 4), (2, 4), (4, 4)):
        graphs.append(_random_bridged_multigraph(rng, left, right))
    assert any(g.has_parallel_edges() for g in graphs)
    assert any(not is_connected(g) for g in graphs)
    for graph in graphs:
        for k in _DIFFERENTIAL_KS[graph.n]:
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
