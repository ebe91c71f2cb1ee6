from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from collections import Counter
from itertools import combinations, islice, permutations

import pytest

from normalcol import solver
from normalcol.coloring import abnormal_set, is_normal, is_proper
from normalcol.constructions import DEMO_VARIANTS, composite_graph, vertex_replacement
from normalcol.generate import enumerate_cubic
from normalcol.graphs import CubicGraph, catalog, connectivity_report
from normalcol.petersen import canonical_petersen
from normalcol.solver import (
    SearchConfig,
    SolveStatus,
    _pieces,
    has_normal_k,
    min_abnormal,
    normal_chromatic_index,
)

from conftest import (
    bridged_multigraph,
    bridged_simple_10,
    disjoint_union,
    domino_multigraph,
    exhaustive_oracle,
    is_connected,
    labeled_cubic,
    leaf_pieces,
    random_bridge_tree,
    random_bridged_multigraph,
    random_cubic_multigraph,
    three_cut_corpus,
    three_edge_colorable,
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
    # the empty graph's empty coloring is normal at the first k tried
    assert normal_chromatic_index(CubicGraph(0, ())) == 3


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
    # pre-colored star, the color-introduction order, the normal-coloring
    # probe and the forward check; any change to the search order moves at
    # least one of them.
    # Petersen at k = 5 ends in its probe; at k = 4 the probe takes 45 nodes
    # and proves there is no normal coloring, then the plain search runs
    assert min_abnormal(petersen).nodes_explored == 146
    assert min_abnormal(petersen, SearchConfig(k=4)).nodes_explored == 5110
    # at k = 3 every proper coloring is normal, so the search runs once
    assert min_abnormal(petersen, SearchConfig(k=3)).nodes_explored == 24
    # the one bridged class at n = 10 is split into its two bridge-free
    # pieces, both with a pendant edge, so neither is probed; the 18
    # bridgeless ones are one pendant-free piece each
    nodes = {True: [], False: []}
    for g in enumerate_cubic(10, distinct=True):
        nodes[connectivity_report(g).bridgeless].append(min_abnormal(g).nodes_explored)
    assert sum(nodes[True]) == 782
    assert nodes[False] == [138]
    result = min_abnormal(bridged_multigraph())
    assert (result.best_count, result.nodes_explored) == (BRIDGED_MIN, 8)


def test_search_order_pinned_on_composites(petersen):
    # the budget-0 solves behind the extension-bound demos: the composites
    # of the Petersen graph (each ends in its probe), and Petersen at k = 6
    # and at k = 8, where palettes outgrow the popcount table.  The 3-edge-cut
    # check prunes only in vertex_replacement, behind whose 3-edge cuts the
    # search re-colored the replaced copies (121,234 nodes without it).  Each
    # copy closes off into a Petersen graph, so every vertex star is read as
    # well (3,514 nodes without the stars), and narrowing one edge's domain
    # spreads to the other constraints through it (1,518 nodes without that)
    for variant, t, nodes in [
        ("disjoint", 3, 438),
        ("cyclic1", 3, 990),
        ("cyclic2", 3, 91),
        ("vertex_replacement", 2, 829),
    ]:
        result = min_abnormal(composite_graph(petersen, variant, t), SearchConfig(abnormal_budget=0))
        assert (result.best_count, result.nodes_explored) == (0, nodes), variant
    assert min_abnormal(petersen, SearchConfig(k=6)).nodes_explored == 825
    assert min_abnormal(petersen, SearchConfig(k=8)).nodes_explored == 35


def test_search_order_pinned_on_replacement_family():
    # the node total of the replacement family's budget-0 solves (outcomes
    # pinned below), where every replaced vertex sits behind a 3-edge cut:
    # the 3-edge-cut check prunes here, and the family moves where the
    # composites above may not.  One of the 26, the Petersen graph's, is
    # behind a snark and reads vertex stars (8,155 nodes without them)
    host = catalog("k33")
    graphs = [
        vertex_replacement(host, g, 0)
        for n in range(4, 11, 2)
        for g in enumerate_cubic(n, distinct=True)
        if connectivity_report(g).bridgeless
    ]
    assert len(graphs) == 26
    cfg = SearchConfig(abnormal_budget=0)
    assert sum(min_abnormal(h, cfg).nodes_explored for h in graphs) == 6737


def test_search_order_pinned_on_a_k4_proof():
    # class 387 of the n = 14 stream has no normal 4-coloring, so its k = 4
    # solve goes on to prove the minimum 8 in the plain search, where the
    # 3-edge-cut check must not run: its lemma needs every edge normal.  With
    # the check in every search this solve takes 40,709 nodes (same minimum
    # and witness here)
    graph = next(islice(enumerate_cubic(14, distinct=True), 387, None))
    result = min_abnormal(graph, SearchConfig(k=4))
    assert (result.best_count, result.nodes_explored) == (8, 51082)


def test_search_order_pinned_on_a_cut_class():
    # class 96 of the n = 14 stream has two 3-edge cuts and a normal
    # coloring at k = 4 and 5: its budget-0 node counts fix which cuts the
    # 3-edge-cut check reads, those through every edge of a star the edge
    # just colored fills (48 and 51 nodes through that edge's cuts alone)
    graph = next(islice(enumerate_cubic(14, distinct=True), 96, None))
    results = [min_abnormal(graph, SearchConfig(k=k, abnormal_budget=0)) for k in (4, 5)]
    assert [(r.best_count, r.nodes_explored) for r in results] == [(0, 41), (0, 41)]


def test_cut_check_moves_no_outcome(monkeypatch):
    # the 3-edge-cut check prunes only subtrees without a normal coloring, so
    # the probe meets the same first normal coloring with the check or
    # without it, and only in fewer nodes
    graphs = three_cut_corpus()
    cfgs = [SearchConfig(k=k, abnormal_budget=0) for k in (4, 5)]
    checked = [min_abnormal(g, cfg) for cfg in cfgs for g in graphs]
    monkeypatch.setattr(solver, "_cut_check", lambda graph, color, pal: None)
    plain = [min_abnormal(g, cfg) for cfg in cfgs for g in graphs]
    assert len(checked) == 528
    for a, b in zip(checked, plain):
        assert (a.status, a.best_count, a.witness) == (b.status, b.best_count, b.witness)
        assert a.nodes_explored <= b.nodes_explored
    assert sum(r.nodes_explored for r in checked) < sum(r.nodes_explored for r in plain)


def test_cut_check_built_only_where_read(monkeypatch):
    # the 3-edge-cut check is built by the one search that reads it: the
    # search for a normal coloring (cap 0), in at most 5 colors, of a piece
    # no bridge meets.  At k = 3 no search runs at cap 0, and at k = 6 the
    # lemma does not hold
    build, builds = solver._cut_check, []

    def counted(graph, color, pal):
        builds.append(graph)
        return build(graph, color, pal)

    monkeypatch.setattr(solver, "_cut_check", counted)
    graphs = list(enumerate_cubic(12, distinct=True))
    for graph in graphs:
        min_abnormal(graph, SearchConfig(k=3))
        min_abnormal(graph, SearchConfig(k=6, abnormal_budget=0))
    assert builds == []
    # a graph of three bridgeless pieces builds it three times
    graphs.append(composite_graph(catalog("petersen"), "disjoint", 3))
    for graph in graphs:
        min_abnormal(graph, SearchConfig(k=5, abnormal_budget=0))
    assert builds == [g for g in graphs for piece in _pieces(g) if not piece.bridged]
    assert len(builds) == 81 + 3  # the bridgeless n = 12 classes, the three pieces


def test_stars_move_no_outcome(monkeypatch):
    # vertex stars prune only subtrees without a normal coloring, so reading
    # them on every graph that lists a 3-edge cut, far beyond the graphs the
    # snark gate picks, meets the same first normal coloring as reading none
    graphs = three_cut_corpus()
    cfgs = [SearchConfig(k=k, abnormal_budget=0) for k in (4, 5)]
    runs = []
    for gate in (True, False):
        monkeypatch.setattr(solver, "_behind_snark", lambda graph, gate=gate: gate)
        runs.append([min_abnormal(g, cfg) for cfg in cfgs for g in graphs])
    starred, plain = runs
    for a, b in zip(starred, plain):
        assert (a.status, a.best_count, a.witness) == (b.status, b.best_count, b.witness)
        assert a.nodes_explored <= b.nodes_explored
    assert sum(r.nodes_explored for r in starred) < sum(r.nodes_explored for r in plain)


def _bridgeless(graph: CubicGraph) -> bool:
    """Whether every edge's ends stay joined once it is removed: a search
    from one end over the other edges, by edge id."""
    for eid, (u, v) in enumerate(graph.edges):
        seen, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for f, (a, b) in enumerate(graph.edges):
                if f != eid and x in (a, b) and a + b - x not in seen:
                    seen.add(a + b - x)
                    stack.append(a + b - x)
        if v not in seen:
            return False
    return True


def _behind_snark_brute_force(graph: CubicGraph) -> bool:
    """The snark gate from its definition: for every listed 3-edge cut, both
    sides by a search over the edge list that crosses no cut edge, and every
    side no larger than the other closed off with one new vertex on the cut
    edges and decided by the backtracking oracle; no size shortcut, no memo."""
    for cut in graph._three_cuts:
        sides = []
        for start in graph.edges[cut[0]]:
            side, stack = {start}, [start]
            while stack:
                x = stack.pop()
                for f, (a, b) in enumerate(graph.edges):
                    if f not in cut and x in (a, b) and a + b - x not in side:
                        side.add(a + b - x)
                        stack.append(a + b - x)
            sides.append(side)
        for side in sides:
            if len(side) > graph.n - len(side):
                continue
            label = {v: i for i, v in enumerate(side)}
            new = len(side)
            edges = [
                (label.get(a, new), label.get(b, new))
                for a, b in graph.edges
                if a in side or b in side
            ]
            closure = CubicGraph(new + 1, tuple(edges))
            if _bridgeless(closure) and not three_edge_colorable(closure):
                return True
    return False


def test_snark_gate_matches_brute_force():
    # the corpus holds both vertex-replacement composites, which are behind
    # a snark; of the replacement family only the Petersen graph's is
    host = catalog("k33")
    family = [
        vertex_replacement(host, g, 0)
        for n in range(4, 11, 2)
        for g in enumerate_cubic(n, distinct=True)
        if connectivity_report(g).bridgeless
    ]
    graphs = three_cut_corpus() + family
    gate = [solver._behind_snark(g) for g in graphs]
    assert gate == [_behind_snark_brute_force(g) for g in graphs]
    assert gate.count(True) == 3


def test_small_bridgeless_cubic_graphs_are_3_edge_colorable():
    # the fact behind the snark gate's side bound: a side under 9 vertices
    # closes off into at most 8, and every bridgeless cubic graph that small,
    # parallel edges allowed, has a 3-edge-coloring.  The Petersen graph, the
    # smallest that has none, is what a side of 9 closes off into
    graphs = [g for n in (4, 6, 8) for g in enumerate_cubic(n, distinct=True)]
    rng = random.Random(37)
    graphs += [random_cubic_multigraph(rng, n) for n in (2, 4, 6, 8) for _ in range(1000)]
    bridgeless = [g for g in graphs if _bridgeless(g)]
    assert len(bridgeless) == 8 + 3803  # every class, and the draws without a bridge
    assert sum(len(set(g.edges)) < g.m for g in bridgeless) == 2845  # with parallel edges
    assert all(three_edge_colorable(g) for g in bridgeless)
    petersen = catalog("petersen")
    assert not three_edge_colorable(petersen) and petersen.n == solver._SIDE + 1


def test_cut_check_domains_match_brute_force():
    # the 3-edge-cut check's tables, rebuilt from the model's (palette,
    # color) -> edge dict through completions: an edge of color c (0 while
    # uncolored) with palette p at one end can become M exactly when some
    # final palette S holding p, and a color c' in S that is c or, for c = 0,
    # outside p, send it to M = edge_at[(S, c')]
    model = canonical_petersen()
    dom, stars = solver._domains()
    finals = [frozenset(s) for s in combinations(range(1, 6), 3)]
    for c in range(6):
        for p in range(32):
            held = {x for x in range(1, 6) if p >> (x - 1) & 1}
            expected = 0
            for final in finals:
                if held <= final:
                    for image in final:
                        if image == c or not c and image not in held:
                            expected |= 1 << model.edge_at[(final, image)]
            assert dom[c][p] == expected, (c, p)
    # a full end's palette leaves one model edge: the known edge
    assert all(dom[c][sum(1 << (x - 1) for x in s)].bit_count() == 1 for s in finals for c in s)
    inc = model.graph.incidence
    assert sorted(stars) == sorted(sum(1 << e for e in inc[w]) for w in range(10))


def test_star_test_matches_brute_force():
    # Hall's condition against the distinct representatives themselves: a
    # star passes when it takes a distinct edge from each of the three
    # domains, and each domain narrows to its part of the passing stars
    inc = canonical_petersen().graph.incidence
    stars = [sum(1 << e for e in inc[w]) for w in range(10)]
    rng = random.Random(35)
    singles = [1 << e for e in range(15)]
    triples = [tuple(rng.choice(singles) for _ in range(3)) for _ in range(300)]
    for _ in range(1500):
        picks = [rng.choice((3, 6, 10)) for _ in range(3)]
        triples.append(tuple(sum(1 << e for e in rng.sample(range(15), k)) for k in picks))
    triples += [(1, 2, 4), (1, 1, 2), (0, 1, 2)]
    passed = 0
    for domains in triples:
        narrowed = [0, 0, 0]
        for star in stars:
            edges = [e for e in range(15) if star >> e & 1]
            if any(all(domains[i] >> e & 1 for i, e in enumerate(order)) for order in permutations(edges)):
                narrowed = [n | d & star for n, d in zip(narrowed, domains)]
        assert solver._star_test(*domains) == tuple(narrowed), domains
        passed += any(narrowed)
    assert 0 < passed < len(triples)


def _outcomes_sha256(results):
    blob = json.dumps([
        [r.status.value, r.best_count, None if r.witness is None else list(r.witness.colors)]
        for r in results
    ])
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of (status, best_count, witness colors) per solve, taken before the
# forward check: pruning may move node counts, never what a solve returns
def test_class_outcomes_pinned():
    results = [
        min_abnormal(g, SearchConfig(k=k))
        for n in range(4, 11, 2)
        for g in enumerate_cubic(n, distinct=True)
        for k in (3, 4, 5)
    ]
    assert len(results) == 81
    assert _outcomes_sha256(results) == (
        "382f66a2bb11a90dfc9db7faa055d440463e12a97fabd455ea1f3a9b55a4f86e"
    )


def test_composite_outcomes_pinned(petersen):
    results = [
        min_abnormal(composite_graph(petersen, variant, t), SearchConfig(abnormal_budget=0))
        for variant in ("disjoint", "cyclic1", "vertex_replacement", "cyclic2")
        for t in (2, 3)
    ]
    assert _outcomes_sha256(results) == (
        "81dd4496cf2c47082c32a20870f0001e92826bd58447a75544fceefcb801a975"
    )


def test_replacement_family_outcomes_pinned():
    # every replaced vertex sits behind a 3-edge cut, where the 3-edge-cut
    # check prunes the most: K33 with each vertex replaced by one of the 26
    # bridgeless classes with n <= 10, less a vertex.  Taken before the search
    # pruned by cuts, when these solves took 4,362,358 nodes.  The solves share
    # a limit above that, so a solver that prunes normal colorings fails
    # here in seconds instead of searching for minutes
    host = catalog("k33")
    graphs = [
        g
        for n in range(4, 11, 2)
        for g in enumerate_cubic(n, distinct=True)
        if connectivity_report(g).bridgeless
    ]
    assert len(graphs) == 26
    results, left = [], 5_000_000
    for g in graphs:
        cfg = SearchConfig(abnormal_budget=0, node_limit=left)
        results.append(min_abnormal(vertex_replacement(host, g, 0), cfg))
        left -= results[-1].nodes_explored
    assert _outcomes_sha256(results) == (
        "f516e6a3b3b2a7eb94c12f89d1db3320e6c28225c129456f0808a3a8bcc45545"
    )


# the 4,060 classes at n = 16, k = 5, where leaf pieces reach 17 edges: the
# minima and the sha256 of repr((status, minimum, witness colors)) per solve
# in stream order.  Node counts are not pinned here
@pytest.mark.skipif(not os.environ.get("NORMALCOL_SLOW"), reason="about 7 s; set NORMALCOL_SLOW=1")
def test_n16_outcomes_pinned():
    results = [min_abnormal(g) for g in enumerate_cubic(16, distinct=True)]
    assert Counter(r.best_count for r in results) == {0: 3874, 4: 185, 6: 1}
    blob = "".join(repr((r.status.value, r.best_count, r.witness.colors)) for r in results)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "16a7f904ecabe94d8685fa7393e3f2240c1a4c6a692dce632b3384de76e0d718"
    )


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
    # at k = 4 the 45-node probe finds no normal coloring, and the plain
    # search has an incumbent by node 100
    result = min_abnormal(petersen, SearchConfig(k=4, node_limit=100))
    assert result.status is SolveStatus.LIMIT
    assert result.witness is not None
    assert is_proper(petersen, result.witness, 4)
    assert len(abnormal_set(petersen, result.witness)) == result.best_count


def test_node_limit_through_the_probe(petersen):
    # Petersen at k = 4: the probe takes 45 nodes, the whole solve 5,110;
    # a limit inside the probe stops it before any coloring is found
    probe, full = 45, min_abnormal(petersen, SearchConfig(k=4))
    assert min_abnormal(petersen, SearchConfig(k=4, abnormal_budget=0)).nodes_explored == probe
    assert (full.status, full.nodes_explored) == (SolveStatus.OPTIMAL, 5110)
    for limit in [*range(201), *range(300, 5801, 100), 5109, 5110]:
        result = min_abnormal(petersen, SearchConfig(k=4, node_limit=limit))
        assert result.nodes_explored <= limit
        if limit <= probe:
            assert (result.status, result.witness) == (SolveStatus.LIMIT, None)
        if result.witness is not None:
            assert is_proper(petersen, result.witness, 4)
            assert len(abnormal_set(petersen, result.witness)) == result.best_count
        if limit >= full.nodes_explored:
            assert result == full
        else:
            assert result.status is SolveStatus.LIMIT


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


def test_witness_soundness_over_stream():
    for graph in enumerate_cubic(6, distinct=True):
        result = min_abnormal(graph)
        assert is_proper(graph, result.witness, 5)
        assert len(abnormal_set(graph, result.witness)) == result.best_count


def test_oracle_equivalence_labeled_sample():
    # labeled (non-canonical) vertex orders exercise the solver's symmetry
    # reductions from arbitrary angles
    sample = [g for i, g in enumerate(labeled_cubic(6)) if i % 7 == 0]
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


def test_normal_4_coloring_iff_3_edge_colorable(petersen):
    # with 4 colors two palettes share at least 2 colors, so no edge is rich:
    # a normal 4-coloring is one with every edge poor, one palette on each
    # component, that is a 3-edge-coloring.  These searches run the forward
    # check and the 3-edge-cut check on graphs far beyond the exhaustive oracle
    graphs = [g for n in range(4, 15, 2) for g in enumerate_cubic(n, distinct=True)]
    assert len(graphs) == 621
    graphs += [composite_graph(petersen, v, t) for v in DEMO_VARIANTS for t in (2, 3)]
    rng = random.Random(21)
    graphs += [random_cubic_multigraph(rng, n) for n in range(2, 23, 2) for _ in range(8)]
    graphs += [random_bridged_multigraph(rng, 4, 6) for _ in range(4)]
    colorable = [three_edge_colorable(g) for g in graphs]
    assert colorable[:621].count(True) == 580
    assert True in colorable[621:] and False in colorable[621:]
    for graph, expected in zip(graphs, colorable):
        witness = has_normal_k(graph, 4)
        assert (witness is not None) == expected
        if witness is not None:
            assert is_normal(graph, witness) and is_proper(graph, witness, 4)


# colors checked per vertex count: the oracle has no symmetry reduction, so
# its cost grows with k much faster than with n
_DIFFERENTIAL_KS = {2: (3, 4, 5), 4: (3, 4, 5), 6: (3, 4, 5), 8: (3, 4), 10: (3,), 12: (3,)}


def _check_against_oracle(graph, k):
    """min_abnormal agrees with the exhaustive oracle at budgets None, 0
    and 2, and at the tight budgets the oracle's minimum (OPTIMAL) and one
    below it (INFEASIBLE), where a branch that reaches the budget has no
    slack left and the forward check runs; every witness is proper with
    best_count abnormal edges.  With at most 5 colors every proper coloring
    has at least 2 abnormal edges per leaf piece (`leaf_pieces`)."""
    oracle = exhaustive_oracle(graph, k=k)
    if k <= 5 and oracle.status is SolveStatus.OPTIMAL:
        assert oracle.best_count >= 2 * leaf_pieces(graph)
    tight = [b for b in (oracle.best_count, oracle.best_count - 1) if b >= 0]
    for budget in (None, 0, 2, *tight):
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
    assert any(len(set(g.edges)) < g.m for g in graphs)
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
    assert chain.n == 8 and chain._cut_space[1].count(0) == 2
    _check_against_oracle(chain, 5)


def _assert_twice_the_leaf_count(graph: CubicGraph) -> int:
    result = min_abnormal(graph)
    assert result.status is SolveStatus.OPTIMAL
    leaves = leaf_pieces(graph)
    assert result.best_count == 2 * leaves
    assert is_proper(graph, result.witness, 5)
    assert len(abnormal_set(graph, result.witness)) == result.best_count
    return leaves


# Observed, not proved: at k = 5 each leaf piece costs exactly 2 abnormal
# edges and nothing else costs any (for bridgeless graphs this is Jaeger's
# conjecture).  Two vertices of 3 bridges make a tree with 4 leaves
_LEAF_TREES = _BRIDGE_TREES + [([1, 1, 3, 3, 3, 3], [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])]


def test_minimum_is_twice_the_leaf_count():
    for n in range(4, 15, 2):
        for graph in enumerate_cubic(n, distinct=True):
            _assert_twice_the_leaf_count(graph)
    rng = random.Random(20219)
    leaves = set()
    for sizes, bridges in _LEAF_TREES:
        for _ in range(6):
            leaves.add(_assert_twice_the_leaf_count(random_bridge_tree(rng, sizes, bridges)))
    assert {2, 3, 4} <= leaves
    for _ in range(30):
        left, right = rng.choice(((2, 2), (2, 4), (4, 4), (4, 6), (6, 6)))
        assert _assert_twice_the_leaf_count(random_bridged_multigraph(rng, left, right)) >= 2


@pytest.mark.skipif(not os.environ.get("NORMALCOL_SLOW"), reason="about 6 s; set NORMALCOL_SLOW=1")
def test_minimum_is_twice_the_leaf_count_n16():
    for graph in enumerate_cubic(16, distinct=True):
        _assert_twice_the_leaf_count(graph)


def test_cut_space_built_once_per_graph(monkeypatch):
    # record the graph of every spanning-forest pass, one entry per pass
    prop = CubicGraph.__dict__["_cut_space"]
    run_pass, passes = prop.func, []

    def counted(graph: CubicGraph):
        passes.append(graph)
        return run_pass(graph)

    monkeypatch.setattr(prop, "func", counted)
    graph = bridged_multigraph()
    connectivity_report(graph)
    assert min_abnormal(graph).best_count == 4
    assert connectivity_report(graph).edge_connectivity > 0
    assert passes == [graph]
    # one solve per k = 3, 4, 5, all on the same graph
    petersen = catalog("petersen")
    assert normal_chromatic_index(petersen) == 5
    assert passes == [graph, petersen]


def test_long_bridge_chain_pinned():
    # 1,000 blocks in a path; some blocks hold bridges or split in two, so
    # there are 1,361 pieces.  Each piece's search touches only its own
    # edges, so the chain costs no more than its pieces
    path = [(i, i + 1) for i in range(999)]
    graph = random_bridge_tree(random.Random(7), [5] + [6] * 998 + [5], path)
    assert len(_pieces(graph)) == 1361
    result = min_abnormal(graph)
    assert (result.status, result.best_count, result.nodes_explored) == (
        SolveStatus.OPTIMAL, 220, 21345,
    )
    assert is_proper(graph, result.witness, 5)
    assert len(abnormal_set(graph, result.witness)) == 220


def test_huge_k_costs_no_more_than_k_equal_to_m(petersen):
    # a piece with m edges never uses more than m colors, so k = 10**6
    # searches exactly as k = m does
    for graph in (petersen, bridged_simple_10(), bridged_multigraph()):
        huge = min_abnormal(graph, SearchConfig(k=10**6))
        at_m = min_abnormal(graph, SearchConfig(k=graph.m))
        assert (huge.status, huge.best_count, huge.nodes_explored) == (
            at_m.status, at_m.best_count, at_m.nodes_explored,
        )
        assert huge.witness.colors == at_m.witness.colors
        assert huge.witness.k == 10**6


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
