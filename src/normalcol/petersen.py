"""The canonical Petersen model and Petersen-colorings of cubic graphs.

The model fixes the Kneser construction: vertices are the 2-subsets of
{1..5}, adjacent when disjoint, and the edge joining {a,b} and {c,d} is
colored with the one element of {1..5} outside both.  This coloring is
proper, every edge is rich, the ten vertex palettes are exactly the ten
3-subsets of {1..5}, and at the vertex with palette T there is exactly one
edge of each color in T.  So edge_at[(T, c)], the model edge of color c at
the vertex with palette T, is well defined, and it ends at the vertex with
palette (complement of T) | {c}.

A proper 5-edge-coloring c of G maps an edge uv of color c(uv) to
edge_at[(S(u), c(uv))], where S(x) is the palette of x.  Reading the edge
from v's side gives edge_at[(S(v), c(uv))], and the two sides agree
exactly when uv is not abnormal:

* poor uv: S(u) = S(v), so both sides use the same key;
* rich uv: S(u) and S(v) share only c(uv) and cover {1..5}, so S(v) is
  (complement of S(u)) | {c(uv)}, the far end of the edge at S(u); both
  sides name that edge;
* abnormal uv: |S(u) | S(v)| = 4, so S(v) is neither S(u) nor the far end
  (complement of S(u)) | {c(uv)}, which would make the union {1..5}; the
  edge named from u's side has no end with palette S(v), and the two
  sides name different edges.

A Petersen-coloring here is a plain tuple phi with phi[e] the model edge
of G's edge e, or -1 where e is abnormal and left unmapped.  Sending each
vertex star onto a full model star is exactly what makes the map an
H-coloring, and composing back with the model coloring recovers c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coloring import (
    EdgeClass,
    EdgeColoring,
    classify_all,
    is_normal,
    is_proper,
    palette,
)
from .errors import ImproperColoringError, VerificationError
from .graphs import CubicGraph, catalog, petersen_labels


@dataclass(frozen=True)
class PetersenModel:
    graph: CubicGraph
    labels: tuple[frozenset[int], ...]
    ctilde: EdgeColoring
    edge_at: dict[tuple[frozenset[int], int], int]  # (palette, color) -> edge id

    def validate(self) -> None:
        if not is_proper(self.graph, self.ctilde, 5):
            raise VerificationError("model coloring is not proper")
        classes = classify_all(self.graph, self.ctilde)
        if any(cls is not EdgeClass.RICH for cls in classes):
            raise VerificationError("model coloring must make every edge rich")
        palettes = [palette(self.graph, self.ctilde, v) for v in range(10)]
        if len(set(palettes)) != 10 or any(len(p) != 3 for p in palettes):
            raise VerificationError("model palettes must be the ten distinct 3-subsets")
        for v in range(10):
            for color in palettes[v]:
                hits = [
                    e for e in self.graph.incidence[v] if self.ctilde.colors[e] == color
                ]
                if len(hits) != 1:
                    raise VerificationError("model edge-at-color must be unique")


@lru_cache(maxsize=1)
def canonical_petersen() -> PetersenModel:
    """Build and verify the canonical Petersen model."""
    graph = catalog("petersen")
    labels = tuple(frozenset(pair) for pair in petersen_labels())
    full = frozenset(range(1, 6))
    colors = []
    for u, v in graph.edges:
        missing = full - labels[u] - labels[v]
        (c,) = missing
        colors.append(c)
    ctilde = EdgeColoring(5, tuple(colors))
    edge_at = {
        (palette(graph, ctilde, v), colors[eid]): eid
        for v in range(10)
        for eid in graph.incidence[v]
    }
    model = PetersenModel(graph, labels, ctilde, edge_at)
    model.validate()
    return model


def build_p_coloring(
    graph: CubicGraph, coloring: EdgeColoring, allow_abnormal: bool = False
) -> tuple[int, ...]:
    """Map every poor and rich edge into the canonical model.

    With allow_abnormal=False the coloring must be normal and the map is
    total; otherwise abnormal edges map to -1.
    """
    if not is_proper(graph, coloring, 5):
        raise ImproperColoringError("a proper 5-edge-coloring is required")
    edge_at = canonical_petersen().edge_at
    palettes = [palette(graph, coloring, v) for v in range(graph.n)]
    phi = []
    for eid, (u, v) in enumerate(graph.edges):
        c = coloring.colors[eid]
        image = edge_at[(palettes[u], c)]
        if image != edge_at[(palettes[v], c)]:
            if not allow_abnormal:
                raise ImproperColoringError(
                    f"edge {eid} is abnormal; a normal coloring is required"
                )
            image = -1
        phi.append(image)
    return tuple(phi)


def verify_h_coloring(graph: CubicGraph, host: CubicGraph, phi: tuple[int, ...]) -> bool:
    """True iff every vertex star of G maps onto a full vertex star of host."""
    if len(phi) != graph.m:
        raise ValueError("map size does not match the graph")
    if any(p < 0 for p in phi):
        raise ValueError("H-coloring verification needs a total map")
    stars = {frozenset(host.incidence[w]) for w in range(host.n)}
    for v in range(graph.n):
        image = frozenset(phi[e] for e in graph.incidence[v])
        if len(image) != 3 or image not in stars:
            return False
    return True


def pullback(graph: CubicGraph, phi: tuple[int, ...]) -> EdgeColoring:
    """Compose a verified Petersen-coloring with the model coloring.

    The result is checked to be a proper and normal 5-edge-coloring; any
    failure raises rather than returning a bad witness.
    """
    model = canonical_petersen()
    if not verify_h_coloring(graph, model.graph, phi):
        raise VerificationError("the map is not an H-coloring of the model")
    result = EdgeColoring(5, tuple(model.ctilde.colors[p] for p in phi))
    if not is_proper(graph, result, 5):
        raise VerificationError("pullback produced an improper coloring")
    if not is_normal(graph, result):
        raise VerificationError("pullback produced a non-normal coloring")
    return result


def preimage_degrees(
    graph: CubicGraph, coloring: EdgeColoring, model_edges: frozenset[int] | set[int]
) -> tuple[int, ...]:
    """Degrees of every G vertex in the subgraph induced by the preimage of F.

    The map is built with abnormal edges excluded, so their preimages never
    contribute.  For a normal coloring and F a cycle of the model, every
    degree is 0 or 2; a single odd degree would be impossible.
    """
    phi = build_p_coloring(graph, coloring, allow_abnormal=True)
    chosen = set(model_edges)
    degrees = [0] * graph.n
    for eid, image in enumerate(phi):
        if image in chosen:
            u, v = graph.edges[eid]
            degrees[u] += 1
            degrees[v] += 1
    return tuple(degrees)


@lru_cache(maxsize=1)
def model_cycles() -> tuple[frozenset[int], ...]:
    """Every simple cycle of the model, as a frozenset of edge ids.

    All 2^15 edge subsets are scanned for connected 2-regular subgraphs;
    small enough to stay exact and obviously correct.
    """
    model = canonical_petersen()
    graph = model.graph
    cycles = []
    for mask in range(1, 1 << graph.m):
        edges = [e for e in range(graph.m) if (mask >> e) & 1]
        deg: dict[int, int] = {}
        for e in edges:
            u, v = graph.edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        # connected check over touched vertices
        verts = set(deg)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        adj: dict[int, list[int]] = {v: [] for v in verts}
        for e in edges:
            u, v = graph.edges[e]
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen == verts:
            cycles.append(frozenset(edges))
    return tuple(cycles)


# ---------------------------------------------------------------------------
# Map files: one "g_edge_id p_edge_id" line per mapped edge
# ---------------------------------------------------------------------------

def write_p_coloring(phi: tuple[int, ...]) -> str:
    lines = [f"{eid} {p}" for eid, p in enumerate(phi) if p >= 0]
    return "\n".join(lines) + "\n"
