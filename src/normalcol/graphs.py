"""Cubic multigraphs, named catalog graphs, and connectivity analysis.

Graphs are finite, undirected, loop-free and 3-regular; parallel edges are
allowed and distinguished by edge id.  Edge ids are positions in the edge
list, endpoints are stored as (min, max) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator

from .errors import DegreeError, LoopError


@dataclass(frozen=True)
class CubicGraph:
    """Immutable 3-regular multigraph with stable integer edge ids."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        """The one edge pass: normalize each edge to (min, max) and file it in
        the star table `_stars`, each vertex's (edge id, far end) pairs in edge
        id order; the degree check reads it, `incidence` and `neighbors` are
        its two columns."""
        if self.n < 0:
            raise ValueError(f"vertex count must be at least 0, got {self.n}")
        norm, stars = [], [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")
            if u == v:
                raise LoopError(f"edge {eid} is a loop at vertex {u}")
            norm.append((u, v) if u < v else (v, u))
            stars[u].append((eid, v))
            stars[v].append((eid, u))
        for v, star in enumerate(stars):
            if len(star) != 3:
                raise DegreeError(f"vertex {v} has degree {len(star)}, expected 3")
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_stars", tuple(map(tuple, stars)))
        object.__setattr__(self, "incidence", tuple(tuple([e for e, _ in s]) for s in stars))
        object.__setattr__(self, "neighbors", tuple(tuple([w for _, w in s]) for s in stars))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _cut_space(self) -> tuple[int, tuple[int, ...]]:
        """Component count and each edge's set of fundamental cycles, as an int.

        One breadth-first spanning forest.  Non-tree edge e closes one
        fundamental cycle, bit 1 << e, and lies on no other; a tree edge lies
        on those of the non-tree edges with one end below it, the XOR of the
        bits below it, summed in one walk up the forest.  An edge set meets
        every cycle an even number of times, so is a cut, exactly when its
        sets XOR to 0 (the cycle-space view of cuts of Pritchard and
        Thurimella 2011, here over the full basis).
        """
        stars = self._stars
        seen = [False] * self.n
        up = [-1] * self.n  # tree edge to the parent, -1 at a root
        parent = [-1] * self.n
        below = [0] * self.n  # XOR of the non-tree bits at, then under, a vertex
        sets = [0] * self.m
        components = 0
        for root in range(self.n):
            if seen[root]:
                continue
            components += 1
            seen[root] = True
            queue = [root]
            for v in queue:
                for eid, w in stars[v]:
                    if not seen[w]:
                        seen[w] = True
                        up[w], parent[w] = eid, v
                        queue.append(w)
                    elif eid != up[v]:  # non-tree: seen once from each end
                        sets[eid] = 1 << eid
                        below[v] ^= 1 << eid
            for v in reversed(queue[1:]):  # children before parents; the root has no tree edge
                sets[up[v]] = below[v]
                below[parent[v]] ^= below[v]
        return components, tuple(sets)

    @cached_property
    def _three_cuts(self) -> tuple[tuple[int, int, int], ...]:
        """The 3-edge cuts (e, f, g), e < f < g, of three pairwise
        vertex-disjoint edges, none a bridge: sets[e] ^ sets[f] == sets[g].

        A non-bridge edge's set holds only fundamental cycles of its piece,
        the component of G minus its bridges that holds it, so such a cut
        lies in one piece, and each piece is searched on its own, never all
        of G at once.  Every cut of a connected piece holds an edge of the
        spanning forest.  A non-tree edge's set is its own bit alone, so
        three non-tree edges never XOR to 0, and a cut with one tree edge t
        holds the two non-tree edges whose bits make up sets[t].  So only
        the pairs of tree edges are searched, with a lookup for the third.
        """
        (components, sets), stars, ends = self._cut_space, self._stars, self.edges
        piece = [0] * self.n  # per vertex, where its piece's flood fill started
        if components > 1 or 0 in sets:  # more than one piece
            piece = [-1] * self.n
            for root in range(self.n):
                if piece[root] < 0:
                    piece[root] = root
                    members = [root]
                    for v in members:
                        for eid, w in stars[v]:
                            if sets[eid] and piece[w] < 0:
                                piece[w] = root
                                members.append(w)
        trees: dict[int, list[int]] = {}  # each piece's tree edges
        by_set: dict[int, list[int]] = {}
        for eid, (u, _) in enumerate(ends):
            if sets[eid]:  # not a bridge
                by_set.setdefault(sets[eid], []).append(eid)
                if sets[eid] != 1 << eid:
                    trees.setdefault(piece[u], []).append(eid)
        found = []
        for tree in trees.values():
            for i, t in enumerate(tree):
                st = sets[t]
                if st.bit_count() == 2:
                    high = st.bit_length() - 1
                    found.append((t, (st ^ 1 << high).bit_length() - 1, high))
                for b in tree[i + 1:]:
                    for g in by_set.get(st ^ sets[b], ()):
                        # three tree edges are met from each of their pairs
                        if g > b or sets[g] == 1 << g:
                            found.append((t, b, g))
        cuts = [tuple(sorted(c)) for c in found if len({*ends[c[0]], *ends[c[1]], *ends[c[2]]}) == 6]
        return tuple(sorted(cuts))


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------

def petersen_labels() -> tuple[tuple[int, int], ...]:
    """The ten 2-subsets of {1..5} in lexicographic order; vertex i of the
    catalog Petersen graph carries label petersen_labels()[i]."""
    return tuple((a, b) for a in range(1, 6) for b in range(a + 1, 6))


def _petersen() -> CubicGraph:
    labels = petersen_labels()
    edges = []
    for i, j in combinations(range(10), 2):
        if not set(labels[i]) & set(labels[j]):
            edges.append((i, j))
    edges.sort()
    return CubicGraph(10, tuple(edges))


def _k4() -> CubicGraph:
    return CubicGraph(4, tuple(combinations(range(4), 2)))


def _q3() -> CubicGraph:
    edges = set()
    for v in range(8):
        for bit in (1, 2, 4):
            edges.add(tuple(sorted((v, v ^ bit))))
    return CubicGraph(8, tuple(sorted(edges)))


def _k33() -> CubicGraph:
    return CubicGraph(6, tuple((a, b) for a in range(3) for b in range(3, 6)))


def _prism(m: int) -> CubicGraph:
    if m < 3:
        raise ValueError("prism needs a cycle of length at least 3")
    if m % 2 != 0:
        raise ValueError("prism over an odd cycle is not bipartite; even length required")
    edges = []
    for i in range(m):
        edges.append((i, (i + 1) % m))
        edges.append((m + i, m + (i + 1) % m))
        edges.append((i, m + i))
    edges = sorted(tuple(sorted(e)) for e in edges)
    return CubicGraph(2 * m, tuple(edges))


_FIXED = {"petersen": _petersen, "k4": _k4, "q3": _q3, "k33": _k33}


def catalog(name: str, *params: int) -> CubicGraph:
    """Return a named graph: petersen, k4, q3, k33, or prism(m) with m even."""
    name = name.lower()
    if name in _FIXED:
        if params:
            raise ValueError(f"{name} takes no parameters")
        return _FIXED[name]()
    if name == "prism":
        if len(params) != 1:
            raise ValueError("prism takes one parameter, the cycle length")
        return _prism(params[0])
    raise ValueError(f"unknown catalog name: {name!r}")


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectivityReport:
    bridgeless: bool
    edge_connectivity: int  # 0 when disconnected; never above 3 (a vertex star)
    cyclically_4_edge_connected: bool


def connectivity_report(graph: CubicGraph) -> ConnectivityReport:
    """Bridges, edge connectivity, and cyclic 4-edge-connectivity.

    Read off `CubicGraph._cut_space`: a bridge has the empty set, a 2-cut is
    two edges with equal sets.  A side X of an s-edge cut of a cubic graph
    has (3|X| - s)/2 inner edges, so it holds a cycle iff |X| >= s; a single
    vertex has 3 edges out.  So a graph that is disconnected (lambda 0), has
    a bridge (lambda 1) or has a 2-cut (lambda 2) is not cyclically
    4-edge-connected.  Otherwise lambda = 3, as every vertex star is a 3-cut.
    A 3-cut then leaves two sides of odd size, and both hold a cycle unless
    the cut is a vertex star.  Two edges of a 3-cut that share a vertex v on
    side X make it v's star, or else X - v would be a side of a 2-cut.  So
    the graph is cyclically 4-edge-connected iff it has no 3-cut of three
    pairwise vertex-disjoint edges: `CubicGraph._three_cuts`, the list the
    solver's normal-coloring search checks, is empty.  The list is read only
    here, past the bridge and 2-cut returns.
    """
    components, sets = graph._cut_space
    if components != 1:  # the empty graph has no cut at all
        return ConnectivityReport(0 not in sets, 0, components == 0)
    if 0 in sets:
        return ConnectivityReport(False, 1, False)
    if len(set(sets)) < graph.m:
        return ConnectivityReport(True, 2, False)
    return ConnectivityReport(True, 3, not graph._three_cuts)


def enumerate_paths_of_length_three(graph: CubicGraph) -> Iterator[tuple[int, int, int]]:
    """Yield (e1, f, e2) edge triples forming a path on four distinct vertices."""
    stars = graph._stars
    for f, (b, c) in enumerate(graph.edges):
        for e1, a in stars[b]:
            if e1 == f or a == c:
                continue
            for e2, d in stars[c]:
                if e2 == f or e2 == e1 or d in (a, b):
                    continue
                yield (e1, f, e2)
