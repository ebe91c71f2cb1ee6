from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from itertools import product

import networkx as nx
import pytest

from normalcol.coloring import EdgeColoring, abnormal_set, is_proper
from normalcol.constructions import (
    K4_GADGET_COLORS,
    Q3_TWO_ABNORMAL,
    composite_graph,
    cyclic_join_one_edge,
    cyclic_join_two_edges,
    default_three_path,
    disjoint_copies,
    extend_one_edge,
    extend_two_edges,
    extend_vertex_star,
    k4_gadget_extend,
    k_abnormal_example,
    pigeonhole_demo,
    replacement_host,
    two_cut_connection,
    vertex_replacement,
)
from normalcol.errors import ImproperColoringError, VerificationError
from normalcol.generate import enumerate_cubic
from normalcol.graphs import (
    CubicGraph,
    catalog,
    connectivity_report,
    enumerate_paths_of_length_three,
)
from normalcol.petersen import canonical_petersen
from normalcol.solver import SearchConfig, SolveResult, SolveStatus, min_abnormal

from conftest import is_connected

K4_PROPER = EdgeColoring(3, (1, 2, 3, 3, 2, 1))


def _adjacent_edges(g: CubicGraph, eid: int) -> set[int]:
    u, v = g.edges[eid]
    return (set(g.incidence[u]) | set(g.incidence[v])) - {eid}


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def test_disjoint_copies_sizes(k4, petersen):
    h = disjoint_copies(k4, 3)
    assert (h.n, h.m) == (12, 18)
    assert not is_connected(h)
    assert disjoint_copies(petersen, 1).edges == petersen.edges
    big = disjoint_copies(petersen, 4)
    assert big.n == 40
    assert connectivity_report(big).bridgeless


def test_cyclic_join_one_edge_t1_recreates(k4):
    h = cyclic_join_one_edge(k4, 0, 1)
    assert (h.n, h.m) == (4, 6)
    a, b = nx.Graph(h.edges), nx.Graph(k4.edges)
    assert nx.is_isomorphic(a, b)


def test_cyclic_join_one_edge_sizes(petersen):
    h = cyclic_join_one_edge(petersen, 0, 3)
    assert (h.n, h.m) == (30, 45)
    assert is_connected(h)
    assert connectivity_report(cyclic_join_one_edge(petersen, 0, 2)).bridgeless


def test_cyclic_join_two_edges_sizes(petersen):
    e1, e2 = default_three_path(petersen)
    h = cyclic_join_two_edges(petersen, e1, e2, 2)
    assert (h.n, h.m) == (20, 30)


def test_cyclic_join_two_edges_validation(petersen, k4):
    with pytest.raises(ValueError):
        cyclic_join_two_edges(petersen, 0, 1, 2)  # share a vertex
    e1, e2 = default_three_path(petersen)
    with pytest.raises(ValueError):
        cyclic_join_two_edges(petersen, e1, e2, 1)


def test_cyclic_join_two_edges_preserves_cyc4(petersen):
    e1, e2 = default_three_path(petersen)
    for t in (2, 3):
        h = cyclic_join_two_edges(petersen, e1, e2, t)
        assert connectivity_report(h).cyclically_4_edge_connected


def test_vertex_replacement_sizes(petersen, k4, k33):
    h = vertex_replacement(k33, k4, 0)
    assert (h.n, h.m) == (18, 27)
    assert vertex_replacement(catalog("prism", 6), petersen, 0).n == 108
    h2 = vertex_replacement(k33, petersen, 0)
    assert h2.n == 54
    assert connectivity_report(h2).edge_connectivity == 3


def test_two_cut_connection_sizes(k4, q3):
    h = two_cut_connection(k4, 0, k4, 0)
    assert (h.n, h.m) == (8, 12)
    h2 = two_cut_connection(q3, 0, k4, 0)
    assert (h2.n, h2.m) == (12, 18)
    # new edges join distinct graphs, so the result is loop-free by
    # construction; the CubicGraph invariant re-checks it
    assert all(u != v for u, v in h2.edges)


def test_constructions_reject_bad_ids(petersen, k4, k33, q3):
    for bad in (15, -1):
        with pytest.raises(ValueError, match=f"unknown edge id {bad}"):
            cyclic_join_one_edge(petersen, bad, 2)
        with pytest.raises(ValueError, match=f"unknown edge id {bad}"):
            cyclic_join_two_edges(petersen, bad, 3, 2)
        with pytest.raises(ValueError, match=f"unknown edge id {bad}"):
            two_cut_connection(petersen, bad, k4, 0)
        with pytest.raises(ValueError, match=f"unknown edge id {bad}"):
            k4_gadget_extend(q3, EdgeColoring(5, Q3_TWO_ABNORMAL), bad)
    with pytest.raises(ValueError, match="unknown edge id 6"):
        two_cut_connection(petersen, 0, k4, 6)
    with pytest.raises(ValueError, match="unknown vertex 77"):
        vertex_replacement(k33, petersen, 77)
    with pytest.raises(ValueError, match="independent"):
        cyclic_join_two_edges(petersen, 1, 1, 2)  # a repeated edge
    with pytest.raises(ValueError, match="independent"):
        cyclic_join_two_edges(petersen, 0, 1, 2)  # edges sharing vertex 0


# Layouts rebuilt slot by slot from the module docstring's copy-major
# description, without the library's helpers, and compared edge for edge.

LAYOUT_GRAPHS = ("petersen", "k4", "q3", "k33")


class _Layout:
    """An edge list filled by slot; every slot must be filled exactly once."""

    def __init__(self, m: int):
        self.slots: list = [None] * m

    def put(self, slot: int, u: int, v: int) -> None:
        assert self.slots[slot] is None, f"slot {slot} filled twice"
        self.slots[slot] = (u, v)

    def put_copy(self, g: CubicGraph, removed, i: int, n_copy: int, relabel=lambda u: u):
        """Copy i of G minus `removed`: the kept edge of original id f goes to
        slot i*len(kept) + (its rank among the kept ids), on vertices
        [i*n_copy, (i+1)*n_copy)."""
        kept = sorted(set(range(g.m)) - set(removed))
        for f in kept:
            u, v = g.edges[f]
            off = i * n_copy
            self.put(i * len(kept) + kept.index(f), off + relabel(u), off + relabel(v))

    def graph(self, n: int) -> CubicGraph:
        assert None not in self.slots
        return CubicGraph(n, tuple(self.slots))


def _independent_pairs(g: CubicGraph):
    return [
        (e1, e2)
        for e1 in range(g.m)
        for e2 in range(g.m)
        if e1 != e2 and not set(g.edges[e1]) & set(g.edges[e2])
    ]


def test_disjoint_layout_rebuilt():
    for name, t in product(LAYOUT_GRAPHS, (1, 2, 3)):
        g = catalog(name)
        layout = _Layout(t * g.m)
        for i in range(t):
            layout.put_copy(g, (), i, g.n)
        assert disjoint_copies(g, t) == layout.graph(t * g.n)


def test_cyclic_join_one_edge_layout_rebuilt():
    for name, t in product(LAYOUT_GRAPHS, (1, 2, 3)):
        g = catalog(name)
        for e in range(g.m):
            x, y = sorted(g.edges[e])
            layout = _Layout(t * g.m)
            for i in range(t):
                layout.put_copy(g, (e,), i, g.n)
            for i in range(t):  # joining edge y_i -- x_{i+1 mod t}
                layout.put(t * (g.m - 1) + i, i * g.n + y, (i + 1) % t * g.n + x)
            assert cyclic_join_one_edge(g, e, t) == layout.graph(t * g.n)


def test_cyclic_join_two_edges_layout_rebuilt():
    for name, t in product(LAYOUT_GRAPHS, (2, 3)):
        g = catalog(name)
        pairs = _independent_pairs(g)
        assert pairs
        for e1, e2 in pairs:
            (a, b), (c, d) = sorted(g.edges[e1]), sorted(g.edges[e2])
            layout = _Layout(t * g.m)
            for i in range(t):
                layout.put_copy(g, (e1, e2), i, g.n)
            base = t * (g.m - 2)
            for i in range(t):  # per step the pair d_i -- a_{i+1}, c_i -- b_{i+1}
                nxt = (i + 1) % t * g.n
                layout.put(base + 2 * i, i * g.n + d, nxt + a)
                layout.put(base + 2 * i + 1, i * g.n + c, nxt + b)
            assert cyclic_join_two_edges(g, e1, e2, t) == layout.graph(t * g.n)


def test_vertex_replacement_layout_rebuilt():
    # the demo's hosts for t = 1..3 (all K3,3) and every catalog graph as host
    hosts = [replacement_host(t) for t in (1, 2, 3)] + [catalog(n) for n in LAYOUT_GRAPHS]
    for host, name in product(hosts, LAYOUT_GRAPHS):
        g = catalog(name)
        for v in range(g.n):
            relabel = lambda u: u - 1 if u > v else u
            star = sorted(f for f in range(g.m) if v in g.edges[f])
            stubs = [relabel(sum(g.edges[f]) - v) for f in star]
            n_copy = g.n - 1
            layout = _Layout(host.n * (g.m - 3) + host.m)
            for w in range(host.n):
                layout.put_copy(g, star, w, n_copy, relabel)
            for f, (w1, w2) in enumerate(host.edges):
                # the host edge's rank among its end's edges, by id, picks the stub
                r1 = sorted(h for h in range(host.m) if w1 in host.edges[h]).index(f)
                r2 = sorted(h for h in range(host.m) if w2 in host.edges[h]).index(f)
                slot = host.n * (g.m - 3) + f
                layout.put(slot, w1 * n_copy + stubs[r1], w2 * n_copy + stubs[r2])
            assert vertex_replacement(host, g, v) == layout.graph(host.n * n_copy)


def test_two_cut_connection_layout_rebuilt():
    for name1, name2 in product(LAYOUT_GRAPHS, LAYOUT_GRAPHS):
        g1, g2 = catalog(name1), catalog(name2)
        for e1, e2 in product(range(g1.m), range(g2.m)):
            (x1, y1), (x2, y2) = sorted(g1.edges[e1]), sorted(g2.edges[e2])
            layout = _Layout(g1.m + g2.m)
            layout.put_copy(g1, (e1,), 0, 0)
            for r, f in enumerate(f for f in range(g2.m) if f != e2):
                u, v = g2.edges[f]
                layout.put(g1.m - 1 + r, g1.n + u, g1.n + v)
            layout.put(g1.m + g2.m - 2, x1, g1.n + x2)
            layout.put(g1.m + g2.m - 1, y1, g1.n + y2)
            assert two_cut_connection(g1, e1, g2, e2) == layout.graph(g1.n + g2.n)


@pytest.mark.parametrize("name,eids", [("k4", (0,)), ("petersen", (0, 3)), ("q3", (2, 5))])
def test_stub_rejoin_reconstructs_cubic(name, eids):
    """A join keeps each copy's edges in id order and rejoins every open
    stub once; one copy of G - e rejoined to itself is G again."""
    g = catalog(name)
    kept = [g.edges[e] for e in range(g.m) if e not in eids]
    if len(eids) == 1:
        copies, h = 1, cyclic_join_one_edge(g, eids[0], 1)
        assert sorted(h.edges) == sorted(g.edges)
    else:
        copies, h = 2, cyclic_join_two_edges(g, *eids, 2)
    span = len(kept)
    for i in range(copies):
        shifted = h.edges[i * span : (i + 1) * span]
        assert [(u - i * g.n, v - i * g.n) for u, v in shifted] == kept
    ends = [v for e in eids for v in g.edges[e]]
    assert sorted(v % g.n for uv in h.edges[copies * span :] for v in uv) == sorted(ends * copies)


# sha256 of the JSON of each composite's edge list and its pigeonhole demo
# report, measured before the constructions moved to plain edge ids.
PINNED_COMPOSITES = {
    ("petersen", "disjoint", 2): "2cd267b9eeeabba33327d20eaca13cae0657d3da9e6c651d6f460d6239e0a8e8",
    ("petersen", "disjoint", 3): "67e40dfdae496181bb792aafb02cb0ed264a563719e302a005358d75b0b039df",
    ("petersen", "cyclic1", 2): "1bf8161c093e948309869bf41e9a193c91b1034bc8cf51189caf96dbc64939b2",
    ("petersen", "cyclic1", 3): "ad8d6114de066d96f7c39be6966faa0117068057ba3306b4fcfddfa5ce41d66c",
    ("petersen", "vertex_replacement", 2): "a0627a6adaf5f2175af4ae94d07d69ddca2aa2e29fefba1089174744fbd35dfc",
    ("petersen", "vertex_replacement", 3): "40b4dc2b370569eae9c902c1b332b25c208e8fd29f53512198b4a52f720da5ec",
    ("petersen", "cyclic2", 2): "cb4e70921a470f772ac6c30bfef9b98fad32c412edaa827438440ac5c843282f",
    ("petersen", "cyclic2", 3): "65ae5aef437f6e34b2d6e95f4378d67d0c65dacc49853c54cf07b714ae3e0b6d",
    ("k4", "disjoint", 2): "9777ad34f421f7fd3471f71cb832368a6fe534e420f07ebcadff66fba8bad1f8",
    ("k4", "disjoint", 3): "7f086e0f5114f2cb8d44a10268005271f5cbc92fd5cb4b8a408544d623d89e14",
    ("k4", "cyclic1", 2): "2c931fd3531959ccc649934b124b7311ec43369b568681de6001f54b6893f83b",
    ("k4", "cyclic1", 3): "5f8b1a56806c3ab1ebcfa30dff9582390315ded32d5214f3ca1adef818fe5336",
    ("k4", "vertex_replacement", 2): "47784e929e6fca87b99e2cfedb3b1e7be56eca630be58381d639adf39c593bd0",
    ("k4", "vertex_replacement", 3): "369b25d3f4d59bb136a8f003ca2a5c049317eebbeebaf6dbfbb20fa4ac2a77a5",
    ("k4", "cyclic2", 2): "b527fb88795636c371bfa7fa90613dff631bdac12bd513ecf4eec15d75e293be",
    ("k4", "cyclic2", 3): "8dc0c99e175c125e7120ccb934da7ee272e5c512590e890d1b52a8617122b7a6",
}


@pytest.mark.parametrize("name,variant,t", list(PINNED_COMPOSITES))
def test_composite_layouts_and_demos_pinned(name, variant, t):
    g = catalog(name)
    composite = composite_graph(g, variant, t)
    # every composite has a normal coloring, which the demo's unlimited solve
    # relies on; under a node limit (the largest takes 47,606 nodes) a wrong
    # prune fails here in seconds instead of hanging the demo
    result = min_abnormal(composite, SearchConfig(k=5, abnormal_budget=0, node_limit=1_000_000))
    assert result.status is SolveStatus.OPTIMAL and result.best_count == 0
    blob = json.dumps(
        {
            "edges": composite.edges,
            "demo": pigeonhole_demo(g, variant, t).to_json_obj(),
        },
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_COMPOSITES[(name, variant, t)]


# ---------------------------------------------------------------------------
# Frozen tables
# ---------------------------------------------------------------------------

def test_q3_coloring_regeneration(q3):
    """The frozen cube coloring is the lex-min with exactly two abnormal edges."""
    m, n = q3.m, q3.n
    endpoints = q3.edges
    pal = [0] * n
    color = [0] * m
    hit: list[tuple[int, ...]] = []

    def run(eid: int) -> None:
        if hit:
            return
        if eid == m:
            c = EdgeColoring(5, tuple(color))
            if len(abnormal_set(q3, c)) == 2:
                hit.append(tuple(color))
            return
        u, v = endpoints[eid]
        su, sv = pal[u], pal[v]
        for c in range(1, 6):
            bit = 1 << (c - 1)
            if (su | sv) & bit:
                continue
            color[eid] = c
            pal[u] = su | bit
            pal[v] = sv | bit
            run(eid + 1)
            if hit:
                return
        pal[u] = su
        pal[v] = sv
        color[eid] = 0

    run(0)
    assert tuple(hit[0]) == Q3_TWO_ABNORMAL


def test_gadget_table_regeneration():
    """Exhaustive search over palette-preserving gadget extensions."""

    def mask(*colors: int) -> int:
        out = 0
        for c in colors:
            out |= 1 << (c - 1)
        return out

    pop = [bin(i).count("1") for i in range(64)]
    target_u, target_v = mask(1, 2, 3), mask(1, 2, 4)
    solutions = []
    for a, b, c, d, g, x, y in product(range(1, 6), repeat=7):
        if mask(2, 3) | mask(x) != target_u or mask(2, 4) | mask(y) != target_v:
            continue  # host palettes must be preserved
        if len({x, a, b}) < 3 or len({y, c, d}) < 3:
            continue
        if len({a, c, g}) < 3 or len({b, d, g}) < 3:
            continue
        s0, s1 = mask(x, a, b), mask(y, c, d)
        s2, s3 = mask(a, c, g), mask(b, d, g)
        unions = [target_u | s0, target_v | s1, s0 | s2, s0 | s3, s1 | s2, s1 | s3, s2 | s3]
        if sum(1 for u in unions if pop[u] == 4) == 2:
            solutions.append((a, b, c, d, g, x, y))
    assert min(solutions) == K4_GADGET_COLORS


# ---------------------------------------------------------------------------
# Gadget and family
# ---------------------------------------------------------------------------

def test_k4_gadget_extend_steps(q3):
    coloring = EdgeColoring(5, Q3_TWO_ABNORMAL)
    eid = min(abnormal_set(q3, coloring))
    h, ch = k4_gadget_extend(q3, coloring, eid)
    assert h.n == 12
    assert len(abnormal_set(h, ch)) == 3
    eid2 = min(abnormal_set(h, ch))
    h2, ch2 = k4_gadget_extend(h, ch, eid2)
    assert h2.n == 16
    assert len(abnormal_set(h2, ch2)) == 4


def test_k4_gadget_rejects_poor_edge(k4):
    with pytest.raises(ValueError):
        k4_gadget_extend(k4, EdgeColoring(5, K4_PROPER.colors), 0)


@pytest.mark.parametrize("old, new", [(5, 6), (4, 7)])
def test_k4_gadget_rejects_colors_beyond_five(q3, old, new):
    # still proper, with abnormal edges {1, 3}, but not a 5-edge-coloring
    coloring = EdgeColoring(new, tuple(new if c == old else c for c in Q3_TWO_ABNORMAL))
    assert is_proper(q3, coloring) and abnormal_set(q3, coloring) == {1, 3}
    with pytest.raises(ImproperColoringError):
        k4_gadget_extend(q3, coloring, 1)


@pytest.mark.parametrize("k", range(2, 9))
def test_k_abnormal_family(k):
    graph, coloring = k_abnormal_example(k)
    assert graph.n == 8 + 4 * (k - 2)
    assert is_proper(graph, coloring, 5)
    assert len(abnormal_set(graph, coloring)) == k


def test_k_abnormal_rejects_small_k():
    with pytest.raises(ValueError):
        k_abnormal_example(1)
    with pytest.raises(ValueError):
        k_abnormal_example(0)


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------

def _kept_colors(g: CubicGraph, coloring: EdgeColoring, removed) -> dict[int, int]:
    return {e: coloring.colors[e] for e in range(g.m) if e not in removed}


@lru_cache(maxsize=None)
def _extension_inputs() -> tuple[tuple[CubicGraph, EdgeColoring], ...]:
    """The Petersen graph with its Kneser coloring, then every class with
    n <= 10 with its min_abnormal witness."""
    inputs = [(catalog("petersen"), canonical_petersen().ctilde)]
    for n in (4, 6, 8, 10):
        for g in enumerate_cubic(n, distinct=True):
            inputs.append((g, min_abnormal(g).witness))
    return tuple(inputs)


def _check_extension(g, start, out, disturbed, bound):
    assert is_proper(g, out, 5)
    bad = abnormal_set(g, out)
    # every palette outside the disturbed edges is the starting one, so a
    # start that is not normal keeps its abnormal edges there
    assert bad - disturbed == abnormal_set(g, start) - disturbed
    assert len(bad & disturbed) <= bound


def test_extend_one_edge_k4(k4):
    out = extend_one_edge(k4, _kept_colors(k4, K4_PROPER, (0,)), 0)
    assert is_proper(k4, out, 5)
    assert abnormal_set(k4, out) <= {0} | _adjacent_edges(k4, 0)
    assert len(abnormal_set(k4, out)) <= 5


def test_extend_one_edge_petersen_all_edges():
    for g, start in _extension_inputs():
        for eid in range(g.m):
            out = extend_one_edge(g, _kept_colors(g, start, (eid,)), eid)
            _check_extension(g, start, out, {eid} | _adjacent_edges(g, eid), 5)


def test_extend_one_edge_unique_missing_color(q3):
    # palettes {1,2} and {3,4} at the stub ends force color 5
    colors = {1: 1, 2: 2, 3: 3, 4: 4, 5: 2, 6: 3, 7: 1, 8: 1, 9: 4, 10: 2, 11: 5}
    out = extend_one_edge(q3, colors, 0)
    assert out.colors[0] == 5


def test_extend_vertex_star_k4(k4):
    star = k4.incidence[0]
    out = extend_vertex_star(k4, _kept_colors(k4, K4_PROPER, star), 0, K4_PROPER.colors[star[0]])
    assert is_proper(k4, out, 5)
    # the first stub keeps its palette; the other two stubs are disturbed
    disturbed = set(star) | _adjacent_edges(k4, star[1]) | _adjacent_edges(k4, star[2])
    assert abnormal_set(k4, out) <= disturbed
    assert len(abnormal_set(k4, out)) <= 7


def test_extend_vertex_star_petersen():
    for g, start in _extension_inputs():
        for v in range(g.n):
            star = g.incidence[v]
            out = extend_vertex_star(g, _kept_colors(g, start, star), v, start.colors[star[0]])
            disturbed = set(star) | _adjacent_edges(g, star[1]) | _adjacent_edges(g, star[2])
            _check_extension(g, start, out, disturbed, 7)


def test_extend_two_edges_petersen():
    for g, start in _extension_inputs():
        for e1, _, e2 in enumerate_paths_of_length_three(g):
            out = extend_two_edges(g, _kept_colors(g, start, (e1, e2)), e1, e2)
            disturbed = {e1, e2} | _adjacent_edges(g, e1) | _adjacent_edges(g, e2)
            _check_extension(g, start, out, disturbed, 9)


def test_extend_two_edges_requires_three_path(petersen):
    # find an independent pair at distance > 1: no common adjacent edge
    pair = None
    for e1 in range(petersen.m):
        for e2 in range(e1 + 1, petersen.m):
            a, b = petersen.edges[e1]
            c, d = petersen.edges[e2]
            if {a, b} & {c, d}:
                continue
            if not (_adjacent_edges(petersen, e1) & _adjacent_edges(petersen, e2)):
                pair = (e1, e2)
                break
        if pair:
            break
    assert pair is not None
    colors = _kept_colors(petersen, canonical_petersen().ctilde, pair)
    with pytest.raises(ValueError, match="3-edge path"):
        extend_two_edges(petersen, colors, *pair)


def test_extensions_reject_bad_input(petersen):
    kneser = canonical_petersen().ctilde
    with pytest.raises(ValueError, match="unknown edge id 15"):
        extend_one_edge(petersen, _kept_colors(petersen, kneser, ()), 15)
    with pytest.raises(ValueError, match="unknown vertex 10"):
        extend_vertex_star(petersen, _kept_colors(petersen, kneser, ()), 10, 1)
    # a kept edge left uncolored, and two kept edges clashing at vertex 0
    colors = _kept_colors(petersen, kneser, (0,))
    del colors[1]
    with pytest.raises(ImproperColoringError):
        extend_one_edge(petersen, colors, 0)
    colors = _kept_colors(petersen, kneser, (0,))
    a, b = petersen.incidence[0][1:]
    colors[a] = colors[b]
    with pytest.raises(ImproperColoringError):
        extend_one_edge(petersen, colors, 0)
    # the copied color must be missing at the first stub
    star = petersen.incidence[0]
    stub = petersen.neighbors[0][0]
    taken = kneser.colors[next(e for e in petersen.incidence[stub] if e != star[0])]
    with pytest.raises(VerificationError, match="collides"):
        extend_vertex_star(petersen, _kept_colors(petersen, kneser, star), 0, taken)


# ---------------------------------------------------------------------------
# Pigeonhole demos
# ---------------------------------------------------------------------------

def test_demo_bounds_k4():
    for variant, bound in (("disjoint", 0), ("cyclic1", 5), ("vertex_replacement", 7), ("cyclic2", 9)):
        report = pigeonhole_demo(catalog("k4"), variant, 2)
        assert report.passed
        assert report.bound == bound
        assert report.abnormal_final <= bound


def test_demo_report_json_keys(k4):
    obj = pigeonhole_demo(k4, "disjoint", 2).to_json_obj()
    assert set(obj) == {
        "variant", "t", "nV_H", "abnormal_H", "clean_copy_index",
        "abnormal_final", "bound", "pass",
    }


def test_demo_pigeonhole_with_perturbed_coloring(k4):
    # perturb one copy of the composite; the other must be found clean
    h = composite_graph(k4, "disjoint", 2)
    tiled = list(K4_PROPER.colors) * 2
    tiled[7] = 5  # recolor an edge inside copy 1 (color 5 keeps it proper)
    coloring = EdgeColoring(5, tuple(tiled))
    assert is_proper(h, coloring, 5)
    report = pigeonhole_demo(k4, "disjoint", 2, coloring)
    assert report.abnormal_h > 0
    assert report.clean_copy_index == 0
    assert report.passed


def test_demo_no_clean_copy_reports_not_fatal(k4):
    h = composite_graph(k4, "disjoint", 2)
    tiled = list(K4_PROPER.colors) * 2
    tiled[1] = 5
    tiled[7] = 5  # both copies perturbed
    coloring = EdgeColoring(5, tuple(tiled))
    assert is_proper(h, coloring, 5)
    bad = abnormal_set(h, coloring)
    assert any(e < 6 for e in bad) and any(e >= 6 for e in bad)
    report = pigeonhole_demo(k4, "disjoint", 2, coloring)
    assert report.clean_copy_index is None
    assert not report.passed
    assert report.abnormal_final is None


def test_demo_clean_copy_guarantee(k4):
    # whenever |N_H| < copies, a clean copy must be found
    h = composite_graph(k4, "disjoint", 3)
    tiled = list(K4_PROPER.colors) * 3
    tiled[13] = 5  # perturb copy 2 only
    coloring = EdgeColoring(5, tuple(tiled))
    report = pigeonhole_demo(k4, "disjoint", 3, coloring)
    if report.abnormal_h < 3:
        assert report.clean_copy_index is not None


def test_demo_validates_scope(petersen):
    with pytest.raises(ValueError):
        pigeonhole_demo(petersen, "nosuch", 2)
    with pytest.raises(ValueError):
        pigeonhole_demo(petersen, "cyclic2", 1)


def test_demo_rejects_bad_connectivity():
    bridged = CubicGraph(
        6, ((0, 1), (0, 1), (0, 2), (1, 2), (2, 5), (3, 4), (3, 4), (3, 5), (4, 5))
    )
    with pytest.raises(ValueError):
        pigeonhole_demo(bridged, "disjoint", 2)


@pytest.mark.parametrize("variant, units", [("disjoint", 3), ("vertex_replacement", 6)])
def test_demo_solves_with_one_budgeted_call(petersen, monkeypatch, variant, units):
    # the demo asks for fewer abnormal edges than copies in one solve; a
    # composite without such a coloring is a verification failure
    from normalcol import constructions

    calls = []

    def no_witness(h, cfg):
        calls.append(cfg)
        return SolveResult(SolveStatus.INFEASIBLE, -1, None, 0)

    monkeypatch.setattr(constructions, "min_abnormal", no_witness)
    with pytest.raises(VerificationError, match=f"fewer than {units} abnormal edges"):
        pigeonhole_demo(petersen, variant, 3)
    assert calls == [SearchConfig(k=5, abnormal_budget=units - 1)]


def test_replacement_host_shapes():
    assert replacement_host(2).n == 6   # no bipartite 3-connected cubic host on 4 vertices
    assert replacement_host(3).n == 6   # K33, the paper-exact host
    assert replacement_host(4).n == 8
    assert replacement_host(5).n == 12


@pytest.mark.parametrize("t", [0, -1, -7])
def test_copy_count_below_one_rejected(petersen, t):
    # every variant refuses too few copies; vertex replacement's host is
    # K33 for every t up to 3, so replacement_host checks t itself
    with pytest.raises(ValueError, match="^t must be at least 1$"):
        replacement_host(t)
    for variant in ("disjoint", "cyclic1", "vertex_replacement"):
        with pytest.raises(ValueError, match="^t must be at least 1$"):
            composite_graph(petersen, variant, t)
    with pytest.raises(ValueError, match="^t must be at least 2$"):
        composite_graph(petersen, "cyclic2", t)


def test_demo_copy_count_message_is_the_builders(petersen):
    with pytest.raises(ValueError, match="^t must be at least 2$"):
        pigeonhole_demo(petersen, "cyclic2", 1)
    with pytest.raises(ValueError, match="^t must be at least 1$"):
        pigeonhole_demo(petersen, "disjoint", 0)


def test_composite_graph_matches_demo(petersen):
    h = composite_graph(petersen, "cyclic1", 2)
    assert (h.n, h.m) == (20, 30)
