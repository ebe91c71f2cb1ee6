"""Cubic multigraphs, named catalog graphs, and connectivity analysis.

Graphs are finite, undirected, loop-free and 3-regular; parallel edges are
allowed and distinguished by edge id.  Edge ids are positions in the edge
list, endpoints are stored as (min, max) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count
from typing import Collection, Iterator

from .errors import DegreeError, LoopError


@dataclass(frozen=True)
class CubicGraph:
    """Immutable 3-regular multigraph with stable integer edge ids."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm = []
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")
            if u == v:
                raise LoopError(f"edge {eid} is a loop at vertex {u}")
            norm.append((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        for v, d in enumerate(deg):
            if d != 3:
                raise DegreeError(f"vertex {v} has degree {d}, expected 3")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex ordered list of incident edge ids."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(lst) for lst in inc)

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")

    def incident(self, v: int) -> tuple[int, ...]:
        return self.incidence[v]

    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) < self.m

    def is_simple(self) -> bool:
        return not self.has_parallel_edges()


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


def catalog(name: str, *params: int) -> CubicGraph:
    """Return a named graph: petersen, k4, q3, k33, or prism(m) with m even."""
    name = name.lower()
    if name == "petersen":
        return _petersen()
    if name == "k4":
        return _k4()
    if name == "q3":
        return _q3()
    if name == "k33":
        return _k33()
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


def _bridges(graph: CubicGraph, removed: Collection[int] = ()) -> tuple[int, list[int]]:
    """Component count and bridge edge ids of the graph minus `removed`.

    One iterative DFS with Tarjan's lowlink (Tarjan 1974).  A vertex skips
    only the edge id it was entered by, so a parallel copy of that edge is a
    back edge.
    """
    edges, inc = graph.edges, graph.incidence
    disc = [-1] * graph.n
    low = [0] * graph.n
    tick = count()
    bridges: list[int] = []
    components = 0
    for root in range(graph.n):
        if disc[root] >= 0:
            continue
        components += 1
        disc[root] = low[root] = next(tick)
        stack = [(root, -1, iter(inc[root]))]
        while stack:
            v, entry, todo = stack[-1]
            for eid in todo:
                if eid == entry or eid in removed:
                    continue
                a, b = edges[eid]
                w = b if a == v else a
                if disc[w] < 0:
                    disc[w] = low[w] = next(tick)
                    stack.append((w, eid, iter(inc[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] > disc[u]:
                        bridges.append(entry)
    return components, bridges


def connectivity_report(graph: CubicGraph) -> ConnectivityReport:
    """Bridges, edge connectivity, and cyclic 4-edge-connectivity.

    A side X of an s-edge cut of a cubic graph has (3|X| - s)/2 inner edges,
    so it holds a cycle iff |X| >= s; a single vertex has 3 edges out.  So a
    graph that is disconnected (lambda 0), has a bridge (lambda 1) or has a
    2-cut (lambda 2: some G - e has a bridge) is not cyclically
    4-edge-connected.  Otherwise lambda = 3, as every vertex star is a 3-cut.
    A 3-cut then leaves two sides of odd size, and both hold a cycle unless
    the cut is a vertex star.  Two edges of a 3-cut that share a vertex v on
    side X make it v's star, or else X - v would be a side of a 2-cut.  So
    the graph is cyclically 4-edge-connected iff G - e - f has no bridge for
    every pair of edges e, f that share no endpoint.
    """
    components, bridges = _bridges(graph)
    if components != 1:  # the empty graph has no cut at all
        return ConnectivityReport(not bridges, 0, components == 0)
    if bridges:
        return ConnectivityReport(False, 1, False)
    if any(_bridges(graph, (e,))[1] for e in range(graph.m)):
        return ConnectivityReport(True, 2, False)
    ends = [set(uv) for uv in graph.edges]
    cyc4 = not any(
        _bridges(graph, (e, f))[1]
        for e, f in combinations(range(graph.m), 2)
        if ends[e].isdisjoint(ends[f])
    )
    return ConnectivityReport(True, 3, cyc4)


def is_connected(graph: CubicGraph) -> bool:
    return _bridges(graph)[0] == 1


def enumerate_paths_of_length_three(graph: CubicGraph) -> Iterator[tuple[int, int, int]]:
    """Yield (e1, f, e2) edge triples forming a path on four distinct vertices."""
    for f in range(graph.m):
        b, c = graph.endpoints(f)
        for e1 in graph.incident(b):
            if e1 == f:
                continue
            a = graph.other_end(e1, b)
            if a == c:
                continue
            for e2 in graph.incident(c):
                if e2 == f or e2 == e1:
                    continue
                d = graph.other_end(e2, c)
                if d in (a, b):
                    continue
                yield (e1, f, e2)
