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

So the map is defined exactly on normal colorings, and an abnormal edge
is an error.  A Petersen-coloring here is a plain tuple phi with phi[e]
the model edge of G's edge e.  Sending each vertex star onto a full model
star is exactly what makes the map an H-coloring, and composing back with
the model coloring recovers c.
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
    model = PetersenModel(graph, ctilde, edge_at)
    model.validate()
    return model


def build_p_coloring(graph: CubicGraph, coloring: EdgeColoring) -> tuple[int, ...]:
    """Map every edge of a normal 5-edge-coloring into the canonical model."""
    if not is_proper(graph, coloring, 5):
        raise ImproperColoringError("a proper 5-edge-coloring is required")
    edge_at = canonical_petersen().edge_at
    palettes = [palette(graph, coloring, v) for v in range(graph.n)]
    phi = []
    for eid, (u, v) in enumerate(graph.edges):
        c = coloring.colors[eid]
        image = edge_at[(palettes[u], c)]
        if image != edge_at[(palettes[v], c)]:
            raise ImproperColoringError(f"edge {eid} is abnormal; a normal coloring is required")
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


# ---------------------------------------------------------------------------
# Map files: one "g_edge_id p_edge_id" line per edge
# ---------------------------------------------------------------------------

def write_p_coloring(phi: tuple[int, ...]) -> str:
    lines = [f"{eid} {p}" for eid, p in enumerate(phi)]
    return "\n".join(lines) + "\n"
