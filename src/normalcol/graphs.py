"""Cubic multigraphs, named catalog graphs, deletions, and connectivity analysis.

Graphs are finite, undirected, loop-free and 3-regular; parallel edges are
allowed and distinguished by edge id.  Edge ids are positions in the edge
list, endpoints are stored as (min, max) pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class MarkedGraph:
    """A cubic graph with edges or one vertex deleted, plus the open stubs.

    Stubs record each lost incidence as (vertex, original edge id), ordered by
    edge id then endpoint id, so every downstream construction that rewires
    stubs is deterministic.
    """

    parent: CubicGraph
    removed_edges: tuple[int, ...]
    removed_vertex: int | None
    stubs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.stubs:
            object.__setattr__(self, "stubs", self._compute_stubs())
        for v in self.vertices():
            if self.degree(v) + sum(1 for s, _ in self.stubs if s == v) != 3:
                raise DegreeError(f"vertex {v}: degree plus stub count is not 3")

    def _compute_stubs(self) -> tuple[tuple[int, int], ...]:
        stubs = []
        for eid in sorted(self.removed_edges):
            for v in sorted(self.parent.endpoints(eid)):
                if v != self.removed_vertex:
                    stubs.append((v, eid))
        return tuple(stubs)

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.parent.n) if v != self.removed_vertex)

    def live_edges(self) -> tuple[int, ...]:
        dead = set(self.removed_edges)
        return tuple(e for e in range(self.parent.m) if e not in dead)

    def incident(self, v: int) -> tuple[int, ...]:
        dead = set(self.removed_edges)
        return tuple(e for e in self.parent.incident(v) if e not in dead)

    def degree(self, v: int) -> int:
        return len(self.incident(v))

    def endpoints(self, eid: int) -> tuple[int, int]:
        if eid in self.removed_edges:
            raise ValueError(f"edge {eid} was removed")
        return self.parent.endpoints(eid)


def remove_and_mark(
    graph: CubicGraph,
    edges: Iterable[int] = (),
    vertex: int | None = None,
) -> MarkedGraph:
    """Delete the given edge ids, or one vertex with its three edges."""
    edge_ids = tuple(edges)
    if vertex is not None:
        if edge_ids:
            raise ValueError("pass either edge ids or one vertex, not both")
        if not (0 <= vertex < graph.n):
            raise ValueError(f"unknown vertex {vertex}")
        edge_ids = graph.incident(vertex)
    else:
        if len(set(edge_ids)) != len(edge_ids):
            raise ValueError("deleted edges must be pairwise distinct")
        for eid in edge_ids:
            if not (0 <= eid < graph.m):
                raise ValueError(f"unknown edge id {eid}")
    return MarkedGraph(graph, tuple(sorted(edge_ids)), vertex)


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
    edge_connectivity: int  # capped at 4
    cyclically_4_edge_connected: bool


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
            for eid in graph.incident(v):
                if eid in removed:
                    continue
                ne += 1
                w = graph.other_end(eid, v)
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        out.append((nv, ne // 2))
    return out


def _disconnects(graph: CubicGraph, removed: frozenset[int]) -> bool:
    return len(_components(graph, removed)) > len(_components(graph, frozenset()))


def _cuts_two_cyclic_parts(graph: CubicGraph, removed: frozenset[int]) -> bool:
    # a component contains a cycle iff it has at least as many edges as vertices
    cyclic = sum(1 for nv, ne in _components(graph, removed) if ne >= nv)
    return cyclic >= 2


def connectivity_report(graph: CubicGraph) -> ConnectivityReport:
    """Bridges, edge connectivity (capped at 4), and cyclic 4-edge-connectivity.

    Cyclic 4-edge-connectivity is decided by enumerating every edge subset of
    size at most 3 and checking whether the removal splits off two subgraphs
    that each contain a cycle.  Cubic inputs at desk scale keep this cheap.
    """
    base_components = len(_components(graph, frozenset()))
    connected = base_components == 1

    bridgeless = True
    for eid in range(graph.m):
        if _disconnects(graph, frozenset((eid,))):
            bridgeless = False
            break

    if not connected:
        lam = 0
    elif not bridgeless:
        lam = 1
    else:
        lam = 4
        for size in (2, 3):
            if any(
                _disconnects(graph, frozenset(cut))
                for cut in combinations(range(graph.m), size)
            ):
                lam = size
                break

    cyc4 = True
    for size in range(0, 4):
        for cut in combinations(range(graph.m), size):
            if _cuts_two_cyclic_parts(graph, frozenset(cut)):
                cyc4 = False
                break
        if not cyc4:
            break

    return ConnectivityReport(bridgeless, lam, cyc4)


def is_connected(graph: CubicGraph) -> bool:
    return len(_components(graph, frozenset())) == 1


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
