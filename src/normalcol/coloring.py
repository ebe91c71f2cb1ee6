"""Proper edge-colorings and the poor / rich / abnormal edge classification.

An edge uv of a properly colored cubic graph is poor when the palettes of u
and v together contain 3 colors, rich when they contain 5, and abnormal when
they contain 4.  A coloring with no abnormal edge is normal.

Palettes are represented internally as small bitmasks so the classification
is a mask-or plus a popcount; the exact search calls this in its innermost
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ImproperColoringError, ParseError
from .graphs import CubicGraph, MarkedGraph


class EdgeClass(Enum):
    POOR = "poor"
    RICH = "rich"
    ABNORMAL = "abnormal"


@dataclass(frozen=True)
class EdgeColoring:
    """Total map edge id -> color in {1..k}, stored edge-indexed."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        for eid, c in enumerate(self.colors):
            if not (1 <= c <= self.k):
                raise ValueError(f"edge {eid}: color {c} outside 1..{self.k}")

    def __getitem__(self, eid: int) -> int:
        return self.colors[eid]

    def permuted(self, perm: dict[int, int]) -> "EdgeColoring":
        """Apply a color permutation; classification is invariant under this."""
        return EdgeColoring(self.k, tuple(perm[c] for c in self.colors))


def _check_total(graph: CubicGraph, coloring: EdgeColoring) -> None:
    if len(coloring.colors) != graph.m:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} edges, graph has {graph.m}"
        )


def palette_mask(graph: CubicGraph, coloring: EdgeColoring, v: int) -> int:
    mask = 0
    for eid in graph.incident(v):
        mask |= 1 << (coloring.colors[eid] - 1)
    return mask


def palette(graph: CubicGraph, coloring: EdgeColoring, v: int) -> frozenset[int]:
    """The set of colors on the edges incident to v."""
    _check_total(graph, coloring)
    if not (0 <= v < graph.n):
        raise ValueError(f"unknown vertex {v}")
    return frozenset(coloring.colors[eid] for eid in graph.incident(v))


def is_proper(graph: CubicGraph, coloring: EdgeColoring, k: int | None = None) -> bool:
    """True iff every vertex sees 3 distinct colors, all within 1..k."""
    _check_total(graph, coloring)
    if k is None:
        k = coloring.k
    if any(c > k for c in coloring.colors):
        return False
    for v in range(graph.n):
        if bin(palette_mask(graph, coloring, v)).count("1") != 3:
            return False
    return True


def _classify_mask(union_mask: int) -> EdgeClass:
    size = bin(union_mask).count("1")
    if size == 3:
        return EdgeClass.POOR
    if size == 5:
        return EdgeClass.RICH
    return EdgeClass.ABNORMAL


def classify_edge(graph: CubicGraph, coloring: EdgeColoring, eid: int) -> EdgeClass:
    """Classify one edge of a proper coloring by its endpoint palette union."""
    if not is_proper(graph, coloring):
        raise ImproperColoringError("classification requires a proper coloring")
    u, v = graph.endpoints(eid)
    return _classify_mask(palette_mask(graph, coloring, u) | palette_mask(graph, coloring, v))


def classify_all(graph: CubicGraph, coloring: EdgeColoring) -> tuple[EdgeClass, ...]:
    if not is_proper(graph, coloring):
        raise ImproperColoringError("classification requires a proper coloring")
    masks = [palette_mask(graph, coloring, v) for v in range(graph.n)]
    return tuple(
        _classify_mask(masks[u] | masks[v]) for u, v in graph.edges
    )


def abnormal_set(graph: CubicGraph, coloring: EdgeColoring) -> frozenset[int]:
    """The set N_G(c) of abnormal edge ids."""
    classes = classify_all(graph, coloring)
    return frozenset(e for e, cls in enumerate(classes) if cls is EdgeClass.ABNORMAL)


def is_normal(graph: CubicGraph, coloring: EdgeColoring) -> bool:
    """True iff the proper coloring has no abnormal edge."""
    return not abnormal_set(graph, coloring)


# ---------------------------------------------------------------------------
# Partial colorings on marked graphs
# ---------------------------------------------------------------------------

def marked_palette(marked: MarkedGraph, colors: dict[int, int], v: int) -> frozenset[int]:
    """Palette of v over the live edges of a marked graph."""
    return frozenset(colors[eid] for eid in marked.incident(v))


def marked_is_proper(marked: MarkedGraph, colors: dict[int, int], k: int = 5) -> bool:
    live = marked.live_edges()
    if set(colors) != set(live):
        return False
    if any(not (1 <= colors[e] <= k) for e in live):
        return False
    return all(
        len(marked_palette(marked, colors, v)) == marked.degree(v)
        for v in marked.vertices()
    )


# ---------------------------------------------------------------------------
# Coloring files: header line "k", then one "edge_id color" line per edge
# ---------------------------------------------------------------------------

def write_coloring(coloring: EdgeColoring) -> str:
    lines = [str(coloring.k)]
    lines.extend(f"{eid} {c}" for eid, c in enumerate(coloring.colors))
    return "\n".join(lines) + "\n"


def read_coloring(text: str, num_edges: int) -> EdgeColoring:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty coloring input")
    try:
        k = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"bad coloring header {lines[0]!r}") from exc
    assignment: dict[int, int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad coloring line {ln!r}")
        try:
            eid, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad coloring line {ln!r}") from exc
        if eid in assignment:
            raise ParseError(f"edge {eid} colored twice")
        assignment[eid] = c
    if set(assignment) != set(range(num_edges)):
        raise ParseError(f"coloring must cover edge ids 0..{num_edges - 1} exactly")
    return EdgeColoring(k, tuple(assignment[e] for e in range(num_edges)))
