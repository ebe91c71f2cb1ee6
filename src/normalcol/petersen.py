"""The canonical Petersen model and Petersen-colorings of cubic graphs.

The model fixes the Kneser construction: vertices are the 2-subsets of
{1..5}, adjacent when disjoint, and the edge joining {a,b} and {c,d} is
colored with the one element of {1..5} outside both.  This coloring is
proper, every edge is rich, the ten vertex palettes are exactly the ten
3-subsets of {1..5}, and at the vertex with palette T there is exactly one
edge of each color in T.  Those uniqueness facts are what make the poor and
rich mapping rules below well defined.

A normal 5-edge-coloring c of G induces a map into the model's edges:

* poor xy (palettes of x and y equal, say T): the unique model edge of color
  c(xy) at the vertex whose palette is T;
* rich xy: the unique model edge joining the vertices whose palettes are the
  palettes of x and y (its model color automatically equals c(xy)).

Sending each vertex star onto a full model star is exactly what makes the
map an H-coloring, and composing back with the model coloring recovers c.
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
from .errors import ImproperColoringError, ParseError, VerificationError
from .graphs import CubicGraph, catalog, petersen_labels


@dataclass(frozen=True)
class PetersenModel:
    graph: CubicGraph
    labels: tuple[frozenset[int], ...]
    ctilde: EdgeColoring
    palette_index: dict[frozenset[int], int]
    edge_at: dict[tuple[int, int], int]  # (vertex, color) -> edge id

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
                    e for e in self.graph.incident(v) if self.ctilde.colors[e] == color
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
    palette_index = {full - labels[v]: v for v in range(10)}
    edge_at = {}
    for v in range(10):
        for eid in graph.incident(v):
            edge_at[(v, colors[eid])] = eid
    model = PetersenModel(graph, labels, ctilde, palette_index, edge_at)
    model.validate()
    return model


@dataclass(frozen=True)
class PColoring:
    """Candidate Petersen-coloring: map from G edge ids to model edge ids.

    phi[e] is -1 outside the domain (abnormal edges left unmapped when they
    are allowed at build time).
    """

    num_edges: int
    phi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.phi) != self.num_edges:
            raise ValueError("phi length must equal the edge count")

    def __getitem__(self, eid: int) -> int:
        return self.phi[eid]

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(e for e in range(self.num_edges) if self.phi[e] >= 0)

    def is_total(self) -> bool:
        return all(x >= 0 for x in self.phi)


def build_p_coloring(
    graph: CubicGraph, coloring: EdgeColoring, allow_abnormal: bool = False
) -> PColoring:
    """Map every poor and rich edge into the canonical model.

    With allow_abnormal=False the coloring must be normal and the result is
    total; otherwise abnormal edges are left out of the domain.
    """
    if not is_proper(graph, coloring, 5):
        raise ImproperColoringError("a proper 5-edge-coloring is required")
    model = canonical_petersen()
    classes = classify_all(graph, coloring)
    palettes = [palette(graph, coloring, v) for v in range(graph.n)]
    phi = []
    for eid, (u, v) in enumerate(graph.edges):
        cls = classes[eid]
        if cls is EdgeClass.ABNORMAL:
            if not allow_abnormal:
                raise ImproperColoringError(
                    f"edge {eid} is abnormal; a normal coloring is required"
                )
            phi.append(-1)
            continue
        c = coloring.colors[eid]
        if cls is EdgeClass.POOR:
            target_vertex = model.palette_index[palettes[u]]
            phi.append(model.edge_at[(target_vertex, c)])
        else:
            x = model.palette_index[palettes[u]]
            y = model.palette_index[palettes[v]]
            shared = set(model.graph.incident(x)) & set(model.graph.incident(y))
            (peid,) = shared
            phi.append(peid)
    return PColoring(graph.m, tuple(phi))


def verify_h_coloring(graph: CubicGraph, host: CubicGraph, pcol: PColoring) -> bool:
    """True iff every vertex star of G maps onto a full vertex star of host."""
    if pcol.num_edges != graph.m:
        raise ValueError("map size does not match the graph")
    if not pcol.is_total():
        raise ValueError("H-coloring verification needs a total map")
    stars = {frozenset(host.incident(w)) for w in range(host.n)}
    for v in range(graph.n):
        image = frozenset(pcol.phi[e] for e in graph.incident(v))
        if len(image) != 3 or image not in stars:
            return False
    return True


def pullback(graph: CubicGraph, pcol: PColoring) -> EdgeColoring:
    """Compose a verified Petersen-coloring with the model coloring.

    The result is checked to be a proper and normal 5-edge-coloring; any
    failure raises rather than returning a bad witness.
    """
    model = canonical_petersen()
    if not verify_h_coloring(graph, model.graph, pcol):
        raise VerificationError("the map is not an H-coloring of the model")
    colors = tuple(model.ctilde.colors[pcol.phi[e]] for e in range(graph.m))
    result = EdgeColoring(5, colors)
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
    pcol = build_p_coloring(graph, coloring, allow_abnormal=True)
    chosen = set(model_edges)
    degrees = [0] * graph.n
    for eid in range(graph.m):
        if pcol.phi[eid] in chosen:
            u, v = graph.endpoints(eid)
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
            u, v = graph.endpoints(e)
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
            u, v = graph.endpoints(e)
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

def write_p_coloring(pcol: PColoring) -> str:
    lines = [
        f"{eid} {pcol.phi[eid]}" for eid in range(pcol.num_edges) if pcol.phi[eid] >= 0
    ]
    return "\n".join(lines) + "\n"


def read_p_coloring(text: str, num_edges: int) -> PColoring:
    phi = [-1] * num_edges
    model = canonical_petersen()
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad map line {ln!r}")
        try:
            g_eid, p_eid = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad map line {ln!r}") from exc
        if not (0 <= g_eid < num_edges):
            raise ParseError(f"graph edge id {g_eid} out of range")
        if not (0 <= p_eid < model.graph.m):
            raise ParseError(f"model edge id {p_eid} out of range")
        if phi[g_eid] != -1:
            raise ParseError(f"edge {g_eid} mapped twice")
        phi[g_eid] = p_eid
    return PColoring(num_edges, tuple(phi))
