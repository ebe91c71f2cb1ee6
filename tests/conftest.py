from __future__ import annotations

import faulthandler
import os
import random
from collections import Counter
from functools import lru_cache, reduce
from typing import Iterator, Optional

import pytest

from normalcol.coloring import EdgeColoring, palette
from normalcol.graphs import CubicGraph, catalog, petersen_labels
from normalcol.petersen import canonical_petersen
from normalcol.solver import SolveResult, SolveStatus


_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins are configured, so fd 2 is
    # the terminal here; inside a test it is the capture file, whose
    # contents are lost when the watchdog ends the process
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _watchdog(pytestconfig):
    """Fail a hung test instead of hanging the run: after 300 s, well above
    the slowest test (an opt-in n = 18 scan takes about 80 s), dump every
    thread's traceback to the terminal and exit with a non-zero code."""
    faulthandler.dump_traceback_later(300, exit=True, file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def petersen() -> CubicGraph:
    return catalog("petersen")


@pytest.fixture
def k4() -> CubicGraph:
    return catalog("k4")


@pytest.fixture
def q3() -> CubicGraph:
    return catalog("q3")


@pytest.fixture
def k33() -> CubicGraph:
    return catalog("k33")


def bridged_multigraph() -> CubicGraph:
    """Two doubled-edge triangle blocks joined by a bridge."""
    return CubicGraph(
        6, ((0, 1), (0, 1), (0, 2), (1, 2), (2, 5), (3, 4), (3, 4), (3, 5), (4, 5))
    )


def triple_edge() -> CubicGraph:
    return CubicGraph(2, ((0, 1), (0, 1), (0, 1)))


def domino_multigraph() -> CubicGraph:
    return CubicGraph(4, ((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)))


def bridged_simple_10() -> CubicGraph:
    """Two K4-with-one-stub blocks joined by a single edge (10 vertices)."""
    block = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
    edges = list(block)
    edges.extend((u + 5, v + 5) for u, v in block)
    edges.append((4, 9))
    return CubicGraph(10, tuple(edges))


def random_cubic_multigraph(rng: random.Random, n: int) -> CubicGraph:
    """Configuration model: pair 3n stubs uniformly, redraw on a loop.
    Parallel edges and several components are kept."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = tuple((stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2))
        if all(u != v for u, v in edges):
            return CubicGraph(n, edges)


def disjoint_union(g: CubicGraph, h: CubicGraph) -> CubicGraph:
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    return CubicGraph(g.n + h.n, g.edges + shifted)


def is_connected(graph: CubicGraph) -> bool:
    """Whether a search from vertex 0 along the edge list reaches every
    vertex.  Shares no code with `CubicGraph._cut_space`."""
    adj: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n


def labeled_cubic(n: int) -> Iterator[CubicGraph]:
    """Every connected simple cubic graph on n labeled vertices, once each,
    in lexicographic order of the sorted edge lists: the smallest unsaturated
    vertex takes larger partners in increasing order (so no edge repeats),
    and the connected results are kept.  Shares no code with `generate`;
    the labeled oracle for its class stream (1, 70 and 19,320 graphs for
    n = 4, 6, 8)."""
    deg = [0] * n
    edges: list[tuple[int, int]] = []

    def rec() -> Iterator[CubicGraph]:
        v = next((i for i in range(n) if deg[i] < 3), n)
        if v == n:
            graph = CubicGraph(n, tuple(edges))
            if is_connected(graph):
                yield graph
            return
        # still completing v: its next partner lies above its last one
        low = edges[-1][1] + 1 if edges and edges[-1][0] == v else v + 1
        for u in range(low, n):
            if deg[u] < 3:
                deg[v] += 1
                deg[u] += 1
                edges.append((v, u))
                yield from rec()
                edges.pop()
                deg[v] -= 1
                deg[u] -= 1

    yield from rec()


def random_bridged_multigraph(rng: random.Random, left: int, right: int) -> CubicGraph:
    """Two configuration-model blocks, one random edge of each subdivided,
    the two subdivision vertices joined by a bridge (minimum >= 2 at k = 5)."""
    edges: list[tuple[int, int]] = []
    hubs = []
    off = 0
    for nb in (left, right):
        block = list(random_cubic_multigraph(rng, nb).edges)
        a, b = block.pop(rng.randrange(len(block)))
        hub = off + nb
        edges += [(u + off, v + off) for u, v in block] + [(a + off, hub), (b + off, hub)]
        hubs.append(hub)
        off += nb + 1
    edges.append((hubs[0], hubs[1]))
    return CubicGraph(off, tuple(edges))


def random_bridge_tree(
    rng: random.Random, sizes: list[int], bridges: list[tuple[int, int]]
) -> CubicGraph:
    """Configuration-model blocks joined by bridges.  Block i has sizes[i]
    vertices; `bridges` lists (block, block) pairs forming a tree.  The
    bridge ends of a block go round the block's vertices in turn, each
    taking one stub (so a block of one vertex and three bridges is a vertex
    whose edges are all bridges); a block is redrawn on a loop.  Vertex
    labels and edge order are shuffled at the end.

    A block is a random multigraph on its stubs, not a bridgeless one: it
    may hold bridges of its own or fall apart.  So the result need not be
    connected, and the number of blocks is only a lower bound on the number
    of pieces (components of G minus its bridges).  Read pieces and
    connectivity off the graph, not off `sizes`."""
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    ends = [[] for _ in sizes]
    for b in bridges:
        for i in b:
            ends[i].append(offsets[i] + len(ends[i]) % sizes[i])
    edges: list[tuple[int, int]] = []
    for i, nb in enumerate(sizes):
        while True:
            stubs = [offsets[i] + v for v in range(nb) for _ in range(3)]
            for v in ends[i]:
                stubs.remove(v)
            rng.shuffle(stubs)
            block = [(stubs[j], stubs[j + 1]) for j in range(0, len(stubs), 2)]
            if all(u != v for u, v in block):
                break
        edges += block
    taken = [0] * len(sizes)
    for a, b in bridges:
        edges.append((ends[a][taken[a]], ends[b][taken[b]]))
        taken[a] += 1
        taken[b] += 1
    # shuffled labels and edge order, so no piece starts at its bridge end
    # or sees its bridge last by construction
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    rng.shuffle(edges)
    return CubicGraph(len(label), tuple((label[u], label[v]) for u, v in edges))


def three_edge_colorable(graph: CubicGraph) -> bool:
    """Whether the edges take 3 colors with no two alike at a vertex: plain
    backtracking over the edges in breadth-first order from each
    component's lowest vertex, so each edge meets one colored before it.
    Shares no code with the solver; the independent oracle for
    `has_normal_k(graph, 4)`."""
    order, placed, seen = [], set(), set()
    for root in range(graph.n):
        queue = [] if root in seen else [root]
        seen.add(root)
        for v in queue:
            for eid in graph.incidence[v]:
                w = sum(graph.edges[eid]) - v
                if eid not in placed:
                    placed.add(eid)
                    order.append(graph.edges[eid])
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    used = [0] * graph.n  # each vertex's colors, as bits

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u, v = order[i]
        for bit in (1, 2, 4):
            if not (used[u] | used[v]) & bit:
                used[u] ^= bit
                used[v] ^= bit
                if extend(i + 1):
                    return True
                used[u] ^= bit
                used[v] ^= bit
        return False

    return extend(0)


def leaf_pieces(graph: CubicGraph) -> int:
    """L, the number of pieces (components of G minus its bridges) that
    exactly one bridge meets.  Edge e is a bridge when a plain search of
    G - e from one end misses the other end.  Shares no code with the
    solver's bridge split or `CubicGraph._cut_space`."""

    def reach(start: int, skip: set[int]) -> set[int]:
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for eid in graph.incidence[v]:
                w = sum(graph.edges[eid]) - v
                if eid not in skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    bridges = {eid for eid, (u, v) in enumerate(graph.edges) if v not in reach(u, {eid})}
    piece: dict[int, int] = {}
    for v in range(graph.n):
        if v not in piece:
            piece.update((w, v) for w in reach(v, bridges))
    met = Counter(piece[end] for eid in bridges for end in graph.edges[eid])
    return sum(1 for count in met.values() if count == 1)


def three_cut_corpus() -> list[CubicGraph]:
    """The graphs `CubicGraph._three_cuts` is checked on: every class with
    n <= 12, the 8 Petersen composites of the demos, and seeded multigraph,
    bridged and bridge-tree draws (disconnected ones and bridgeless
    components beside bridged ones among them)."""
    from normalcol.constructions import DEMO_VARIANTS, composite_graph
    from normalcol.generate import enumerate_cubic

    petersen = catalog("petersen")
    graphs = [g for n in range(4, 13, 2) for g in enumerate_cubic(n, distinct=True)]
    graphs += [composite_graph(petersen, v, t) for v in DEMO_VARIANTS for t in (2, 3)]
    rng = random.Random(28)
    graphs += [random_cubic_multigraph(rng, n) for n in range(2, 17, 2) for _ in range(12)]
    graphs += [random_bridged_multigraph(rng, a, b) for a in (2, 4, 6) for b in (4, 8) for _ in range(4)]
    for sizes in ([5, 7], [7, 4, 7], [5, 8, 5], [3, 6, 6, 3]):
        chain = [(i, i + 1) for i in range(len(sizes) - 1)]
        graphs += [random_bridge_tree(rng, sizes, chain) for _ in range(6)]
    return graphs


def reference_map(graph: CubicGraph, coloring: EdgeColoring) -> tuple[int, ...]:
    """The two-rule map into the canonical model, written from the Kneser
    labels alone: the vertex with palette S carries the label {1..5} - S,
    and a model edge's color is the one element outside both end labels.
    Abnormal edges map to -1.  The reference for `build_p_coloring`."""
    full = frozenset(range(1, 6))
    model = canonical_petersen().graph
    labels = [frozenset(pair) for pair in petersen_labels()]
    vertex_of = {full - label: w for w, label in enumerate(labels)}

    def label_color(eid):
        a, b = model.edges[eid]
        (c,) = full - labels[a] - labels[b]
        return c

    phi = []
    for eid, (u, v) in enumerate(graph.edges):
        su, sv = palette(graph, coloring, u), palette(graph, coloring, v)
        x, y = vertex_of[su], vertex_of[sv]
        if su == sv:  # poor: the edge of color c(uv) at the vertex with palette S(u)
            c = coloring.colors[eid]
            (image,) = [e for e in model.incidence[x] if label_color(e) == c]
        elif su | sv == full:  # rich: the edge joining the two palettes' vertices
            (image,) = set(model.incidence[x]) & set(model.incidence[y])
        else:
            image = -1
        phi.append(image)
    return tuple(phi)


def preimage_degrees(
    graph: CubicGraph, coloring: EdgeColoring, model_edges: frozenset[int] | set[int]
) -> tuple[int, ...]:
    """Degrees of every G vertex in the subgraph induced by the preimage of
    the model edge set F under `reference_map`, whose abnormal edges map
    nowhere.  For a normal coloring and F a cycle of the model, every degree
    is 0 or 2; a single odd degree would be impossible."""
    degrees = [0] * graph.n
    for eid, image in enumerate(reference_map(graph, coloring)):
        if image in model_edges:
            u, v = graph.edges[eid]
            degrees[u] += 1
            degrees[v] += 1
    return tuple(degrees)


@lru_cache(maxsize=1)
def model_classes() -> tuple[int, ...]:
    """class(S, c), the set of the model's fundamental cycles through
    edge_at[(S, c)] (`CubicGraph._cut_space`), at index S << 3 | c for S the
    bitmask of a palette; 0 where no model edge has that key.  Model edges
    form a cut exactly when their classes XOR to 0: the lemma behind the
    solver's 3-edge-cut check."""
    model, table = canonical_petersen(), [0] * (32 << 3)
    for (palette, c), eid in model.edge_at.items():
        table[sum(1 << (x - 1) for x in palette) << 3 | c] = model.graph._cut_space[1][eid]
    return tuple(table)


@lru_cache(maxsize=1)
def model_cycles() -> tuple[frozenset[int], ...]:
    """Every simple cycle of the model, as a frozenset of edge ids, in the
    order of their edge bitmasks.

    Read off the model's cut space (`CubicGraph._cut_space`): sets[e] has
    one bit per fundamental cycle through edge e, that is per non-tree edge
    (chord) on it, so the OR of all sets is the 6 chord bits.  Each
    non-empty set T of chords gives the sum of its fundamental cycles, the
    edges e with |sets[e] & T| odd.  Every degree in a sum is even, so 0 or
    2 in a cubic graph: a sum is a disjoint union of cycles, and every cycle
    is the sum of its own chords.  A sum is one cycle, that is connected,
    exactly when no other non-empty sum lies inside it.  So the cycles are
    the 57 minimal sums of the 63; the other 6 are pairs of disjoint
    5-cycles.  Checked against the 2^15 edge-subset scan in
    `test_petersen.py`.
    """
    graph = canonical_petersen().graph
    sets = graph._cut_space[1]
    chords = reduce(int.__or__, sets)
    sums = []
    t = chords
    while t:  # every non-empty submask of the chords
        sums.append(sum(1 << e for e in range(graph.m) if (sets[e] & t).bit_count() & 1))
        t = (t - 1) & chords
    masks = sorted(s for s in sums if not any(r != s and r & s == r for r in sums))
    return tuple(frozenset(e for e in range(graph.m) if mask >> e & 1) for mask in masks)


def single_abnormal_ids(results: list[SolveResult]) -> list[int]:
    """Stream indices of the solve results whose exact minimum is 1; expected empty."""
    return [
        i for i, r in enumerate(results) if r.status is SolveStatus.OPTIMAL and r.best_count == 1
    ]


def exhaustive_oracle(graph: CubicGraph, k: int = 5, max_edges: int = 18) -> SolveResult:
    """Brute-force minimum over all proper k-edge-colorings, no pruning.

    Enumerates colorings edge by edge in id order, rejecting only improper
    partial assignments.  Limited to small graphs; used as the independent
    correctness oracle for min_abnormal.
    """
    if graph.m > max_edges:
        raise ValueError(f"{graph.m} edges exceed the oracle limit {max_edges}")
    if k < 3:
        return SolveResult(SolveStatus.INFEASIBLE, -1, None, 0)

    n, m = graph.n, graph.m
    endpoints = graph.edges
    color = [0] * m
    pal = [0] * n
    state = {"nodes": 0, "best": m + 1}
    best_witness: list[Optional[tuple[int, ...]]] = [None]

    # with the static edge order, edge f is classifiable right after the last
    # edge incident to its endpoints gets its color
    last_at = [max(graph.incidence[v]) for v in range(n)]
    decided_at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for f, (a, b) in enumerate(endpoints):
        decided_at[max(last_at[a], last_at[b])].append((a, b))

    def run(eid: int, committed: int) -> None:
        if eid == m:
            if committed < state["best"]:
                state["best"] = committed
                best_witness[0] = tuple(color)
            return
        u, v = endpoints[eid]
        save_u, save_v = pal[u], pal[v]
        forbidden = save_u | save_v
        steps = decided_at[eid]
        for c in range(1, k + 1):
            bit = 1 << (c - 1)
            if forbidden & bit:
                continue
            state["nodes"] += 1
            color[eid] = c
            pal[u] = save_u | bit
            pal[v] = save_v | bit
            delta = 0
            for a, b in steps:
                if (pal[a] | pal[b]).bit_count() == 4:
                    delta += 1
            run(eid + 1, committed + delta)
        pal[u] = save_u
        pal[v] = save_v
        color[eid] = 0

    run(0, 0)
    if best_witness[0] is None:
        return SolveResult(SolveStatus.INFEASIBLE, -1, None, state["nodes"])
    return SolveResult(
        SolveStatus.OPTIMAL, state["best"], EdgeColoring(k, best_witness[0]), state["nodes"]
    )


@pytest.fixture
def bridged() -> CubicGraph:
    return bridged_multigraph()
