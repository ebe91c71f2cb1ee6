from __future__ import annotations

import random
from collections import Counter, deque
from itertools import combinations

import pytest

from normalcol.constructions import (
    DEMO_VARIANTS,
    composite_graph,
    two_cut_connection,
    vertex_replacement,
)
from normalcol.errors import DegreeError, LoopError
from normalcol.generate import enumerate_cubic
from normalcol.graphs import (
    CubicGraph,
    catalog,
    connectivity_report,
)
from normalcol.solver import _pieces

from conftest import (
    bridged_multigraph,
    bridged_simple_10,
    disjoint_union,
    labeled_cubic,
    random_bridge_tree,
    random_bridged_multigraph,
    random_cubic_multigraph,
    three_cut_corpus,
    triple_edge,
)


def test_cubic_invariants_petersen(petersen):
    assert petersen.n == 10
    assert petersen.m == 15
    assert sum(len(petersen.incidence[v]) for v in range(10)) == 2 * petersen.m
    assert all(len(petersen.incidence[v]) == 3 for v in range(10))


def test_loop_rejected():
    with pytest.raises(LoopError):
        CubicGraph(2, ((0, 0), (0, 1), (0, 1), (1, 1)))


def test_degree_error():
    with pytest.raises(DegreeError):
        CubicGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


def test_endpoint_out_of_range():
    with pytest.raises(ValueError, match="endpoint out of range"):
        CubicGraph(2, ((0, 1), (0, 1), (0, 2)))


def test_parallel_edges_allowed():
    g = bridged_multigraph()
    assert len(set(g.edges)) < g.m
    k4 = catalog("k4")
    assert len(set(k4.edges)) == k4.m


def test_neighbors_follow_incidence():
    # parallel edges give a vertex the same neighbor twice, once per edge
    g = bridged_multigraph()
    for v in range(g.n):
        ends = [a if b == v else b for a, b in (g.edges[eid] for eid in g.incidence[v])]
        assert list(g.neighbors[v]) == ends
    assert g.neighbors[0] == (1, 1, 2)


def test_endpoints_normalized():
    g = CubicGraph(2, ((1, 0), (0, 1), (1, 0)))
    assert g.edges == ((0, 1), (0, 1), (0, 1))
    # equality, hash and repr read n and the normalized edges, not the tables
    assert g == triple_edge() and hash(g) == hash(triple_edge())
    assert repr(g) == "CubicGraph(n=2, edges=((0, 1), (0, 1), (0, 1)))"
    assert g.incidence == ((0, 1, 2), (0, 1, 2)) and g.neighbors == ((1, 1, 1), (0, 0, 0))


def test_edge_errors_come_before_degree_errors():
    # vertex 3 is left bare, yet the loop at edge 1 is what is reported
    with pytest.raises(LoopError, match="edge 1 is a loop at vertex 2"):
        CubicGraph(4, ((0, 1), (2, 2), (0, 5)))
    with pytest.raises(ValueError, match=r"edge 1 endpoint out of range: \(0, 5\)"):
        CubicGraph(4, ((0, 1), (0, 5), (2, 2)))


def test_negative_vertex_count_rejected():
    # -3 vertices would be written as "-3 0" or ":<", which no parser reads
    with pytest.raises(ValueError, match="vertex count must be at least 0, got -3"):
        CubicGraph(-3, ())
    assert CubicGraph(0, ()).m == 0


def test_catalog_entries():
    q3 = catalog("q3")
    assert (q3.n, q3.m) == (8, 12)
    k33 = catalog("k33")
    assert (k33.n, k33.m) == (6, 9)
    prism = catalog("prism", 6)
    assert (prism.n, prism.m) == (12, 18)
    assert connectivity_report(prism).edge_connectivity == 3


def test_catalog_rejects():
    with pytest.raises(ValueError):
        catalog("nosuch")
    with pytest.raises(ValueError):
        catalog("prism", 5)
    with pytest.raises(ValueError, match="takes one parameter"):
        catalog("prism")
    with pytest.raises(ValueError, match="at least 3"):
        catalog("prism", 2)
    # the fixed graphs take no parameter, as prism needs its one
    for name, params in [("k4", (5,)), ("petersen", (3, 4)), ("q3", (8,)), ("k33", (0,))]:
        with pytest.raises(ValueError, match=f"^{name} takes no parameters$"):
            catalog(name, *params)


def test_connectivity_petersen(petersen):
    rep = connectivity_report(petersen)
    assert rep.bridgeless
    assert rep.edge_connectivity == 3
    assert rep.cyclically_4_edge_connected


def test_connectivity_bridge():
    rep = connectivity_report(bridged_simple_10())
    assert not rep.bridgeless
    assert rep.edge_connectivity == 1
    rep2 = connectivity_report(bridged_multigraph())
    assert not rep2.bridgeless


def test_connectivity_q3_cyc4(q3):
    assert connectivity_report(q3).cyclically_4_edge_connected


def test_prism3_not_cyc4():
    # the three rungs separate the two triangles
    prism = CubicGraph(
        6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5))
    )
    rep = connectivity_report(prism)
    assert rep.bridgeless
    assert not rep.cyclically_4_edge_connected


def test_connected(petersen):
    assert connectivity_report(petersen).edge_connectivity > 0
    two = CubicGraph(8, tuple((u, v) for u, v in catalog("k4").edges)
                     + tuple((u + 4, v + 4) for u, v in catalog("k4").edges))
    assert connectivity_report(two).edge_connectivity == 0


@pytest.mark.parametrize(
    "graph",
    [catalog("k4"), catalog("petersen"), catalog("q3"), catalog("k33"),
     catalog("prism", 4), bridged_multigraph(), bridged_simple_10()],
    ids=["k4", "petersen", "q3", "k33", "prism4", "bridged-multi", "bridged-10"],
)
def test_connectivity_against_networkx(graph):
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    rep = connectivity_report(graph)
    assert rep.edge_connectivity == min(nx.edge_connectivity(g), 4)
    # all parametrized inputs are connected, where bridgeless <=> lambda >= 2
    assert rep.bridgeless == (nx.edge_connectivity(g) >= 2)


def _components(graph: CubicGraph, removed: frozenset[int]) -> list[tuple[int, int]]:
    """(vertex count, edge count) of each component after removing edge ids."""
    seen = [False] * graph.n
    out = []
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        nv, ne = 0, 0
        while queue:
            v = queue.popleft()
            nv += 1
            for eid in graph.incidence[v]:
                if eid in removed:
                    continue
                ne += 1
                a, b = graph.edges[eid]
                w = b if a == v else a
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        out.append((nv, ne // 2))
    return out


def brute_force_connectivity(graph: CubicGraph) -> tuple[bool, int, bool]:
    """Reference for connectivity_report: remove every edge subset of size at
    most 3 and count components, and cyclic ones (as many edges as vertices),
    with a BFS each.  Edge connectivity above 3 would read 4."""
    base = len(_components(graph, frozenset()))
    smallest_cut = 4
    cyc4 = True
    for size in range(4):
        for cut in combinations(range(graph.m), size):
            parts = _components(graph, frozenset(cut))
            if len(parts) > base:
                smallest_cut = min(smallest_cut, size)
            if sum(1 for nv, ne in parts if ne >= nv) >= 2:
                cyc4 = False
    lam = 0 if base != 1 else smallest_cut
    return smallest_cut > 1, lam, cyc4


def _report_tuple(graph: CubicGraph) -> tuple[bool, int, bool]:
    rep = connectivity_report(graph)
    return rep.bridgeless, rep.edge_connectivity, rep.cyclically_4_edge_connected


def _differential_corpus() -> list[CubicGraph]:
    rng = random.Random(1974)
    graphs = [triple_edge(), bridged_multigraph(), bridged_simple_10()]
    graphs += [g for n in range(4, 11, 2) for g in enumerate_cubic(n, distinct=True)]
    for n in range(2, 15, 2):
        graphs += [random_cubic_multigraph(rng, n) for _ in range(40 if n <= 8 else 10)]
    for _ in range(30):
        a, b = rng.choice(((2, 2), (2, 4), (4, 4), (4, 6), (2, 8)))
        graphs.append(disjoint_union(random_cubic_multigraph(rng, a), random_cubic_multigraph(rng, b)))
        graphs.append(random_bridged_multigraph(rng, a, b))
    for _ in range(40):
        g1 = random_cubic_multigraph(rng, rng.choice((2, 4, 6)))
        g2 = random_cubic_multigraph(rng, rng.choice((2, 4, 6)))
        graphs.append(two_cut_connection(g1, rng.randrange(g1.m), g2, rng.randrange(g2.m)))
    k4 = catalog("k4")
    graphs.append(vertex_replacement(k4, k4, 0))
    graphs += [composite_graph(k4, variant, t) for variant in DEMO_VARIANTS for t in (2, 3)]
    # labeled, not canonical: vertex and edge orders the classes never show
    graphs += [g for g in labeled_cubic(8) if rng.random() < 0.001]
    for sizes in ([3, 3], [5, 3], [3, 2, 3], [3, 4, 3], [3, 2, 2, 3]):
        chain = [(i, i + 1) for i in range(len(sizes) - 1)]
        graphs += [random_bridge_tree(rng, sizes, chain) for _ in range(2)]
    return graphs


def test_connectivity_matches_brute_force():
    outcomes = []
    for graph in _differential_corpus():
        expected = brute_force_connectivity(graph)
        assert _report_tuple(graph) == expected, graph.edges
        # the bridges the solver splits at are the edges whose removal adds
        # a component
        base = len(_components(graph, frozenset()))
        bridges = {e for e in range(graph.m) if len(_components(graph, frozenset((e,)))) > base}
        assert {piece.via for piece in _pieces(graph) if piece.via >= 0} == bridges, graph.edges
        outcomes.append((expected, len(set(graph.edges)) < graph.m))
    # the corpus reaches every outcome a cubic graph can have, and bridgeless
    # graphs whose parallel edges a bridge pass must not take for bridges
    assert {rep for rep, _ in outcomes} == {
        (True, 0, False), (False, 0, False), (False, 1, False), (True, 2, False),
        (True, 3, False), (True, 3, True),
    }
    assert sum(1 for rep, parallel in outcomes if parallel and rep[0]) >= 10


def _cycle_masks(graph: CubicGraph) -> list[int]:
    """Per edge, the bitmask of the fundamental cycles through it, for a
    spanning forest grown from a stack; each cycle is walked edge by edge up
    the forest from both ends of its non-tree edge until they meet.  Shares
    no code with `CubicGraph._cut_space`."""
    parent, up, depth = [-1] * graph.n, [-1] * graph.n, [-1] * graph.n
    for root in range(graph.n):
        if depth[root] < 0:
            depth[root], stack = 0, [root]
            while stack:
                v = stack.pop()
                for eid in graph.incidence[v]:
                    w = sum(graph.edges[eid]) - v
                    if depth[w] < 0:
                        depth[w], parent[w], up[w] = depth[v] + 1, v, eid
                        stack.append(w)
    masks = [0] * graph.m
    tree = set(up)
    for i, eid in enumerate(e for e in range(graph.m) if e not in tree):
        masks[eid] |= 1 << i
        u, v = graph.edges[eid]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            masks[up[u]] |= 1 << i
            u = parent[u]
    return masks


def brute_force_three_cuts(graph: CubicGraph) -> list[tuple[int, int, int]]:
    """Every edge triple e < f < g, pairwise vertex-disjoint and with no
    bridge (a plain search per removed edge), that meets every cycle of a
    cycle basis an even number of times, that is, an edge cut."""
    base = len(_components(graph, frozenset()))
    bridges = {e for e in range(graph.m) if len(_components(graph, frozenset((e,)))) > base}
    masks, ends = _cycle_masks(graph), graph.edges
    return [
        (e, f, g)
        for e, f, g in combinations(range(graph.m), 3)
        if not masks[e] ^ masks[f] ^ masks[g]
        and not {e, f, g} & bridges
        and len({*ends[e], *ends[f], *ends[g]}) == 6
    ]


def test_three_cuts_match_brute_force():
    kinds = Counter()
    for graph in three_cut_corpus():
        cuts = graph._three_cuts
        assert list(cuts) == brute_force_three_cuts(graph), graph.edges
        # no listed cut holds a bridge or spans two components
        base = len(_components(graph, frozenset()))
        component = {}
        for v in range(graph.n):
            if v not in component:
                component.update((w, v) for w in _reach(graph, v))
        for cut in cuts:
            assert all(len(_components(graph, frozenset((e,)))) == base for e in cut)
            assert len({component[graph.edges[e][0]] for e in cut}) == 1
        if cuts:
            kinds[(base, any(s == 0 for s in graph._cut_space[1]))] += 1
    # cuts in connected graphs, beside bridges, and in graphs of several
    # components, with and without bridges
    assert {(1, False), (1, True), (2, False)} <= set(kinds), kinds
    assert any(base > 1 and bridged for base, bridged in kinds), kinds


def _reach(graph: CubicGraph, start: int) -> set[int]:
    seen, queue = {start}, deque([start])
    while queue:
        v = queue.popleft()
        for w in graph.neighbors[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


# the Petersen composites, with the reports the benchmark expects of them
@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize(
    "variant,expected",
    [
        ("disjoint", (True, 0, False)),
        ("cyclic1", (True, 2, False)),
        ("vertex_replacement", (True, 3, False)),
        ("cyclic2", (True, 3, True)),
    ],
)
def test_composite_connectivity(petersen, variant, expected, t):
    assert _report_tuple(composite_graph(petersen, variant, t)) == expected
