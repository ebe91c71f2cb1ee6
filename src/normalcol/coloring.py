"""Proper edge-colorings and the poor / rich / abnormal edge classification.

An edge uv of a properly colored cubic graph is poor when the palettes of u
and v together contain 3 colors, rich when they contain 5, and abnormal when
they contain 4.  A coloring with no abnormal edge is normal.

Palettes are represented internally as bitmasks over the coloring's distinct
colors, so the classification is a mask-or plus a popcount.  The exact search
keeps its own palette masks and popcount table (`solver._POP`) instead of
calling the classification here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ImproperColoringError, ParseError
from .graphs import CubicGraph


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

    def permuted(self, perm: dict[int, int]) -> "EdgeColoring":
        """Apply a color permutation; classification is invariant under this."""
        return EdgeColoring(self.k, tuple(perm[c] for c in self.colors))


def _check_total(graph: CubicGraph, coloring: EdgeColoring) -> None:
    if len(coloring.colors) != graph.m:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} edges, graph has {graph.m}"
        )


def palette(graph: CubicGraph, coloring: EdgeColoring, v: int) -> frozenset[int]:
    """The set of colors on the edges incident to v."""
    _check_total(graph, coloring)
    if not (0 <= v < graph.n):
        raise ValueError(f"unknown vertex {v}")
    return frozenset(coloring.colors[eid] for eid in graph.incidence[v])


def _palette_masks(graph: CubicGraph, coloring: EdgeColoring) -> list[int]:
    """Every vertex's palette bitmask, in one pass over the edges.  A color's
    bit is its index among the coloring's distinct colors, so the masks cost
    the same whatever the color values; classification only asks which
    colors are equal."""
    bits = {c: 1 << i for i, c in enumerate(dict.fromkeys(coloring.colors))}
    masks = [0] * graph.n
    for (u, v), c in zip(graph.edges, coloring.colors):
        masks[u] |= bits[c]
        masks[v] |= bits[c]
    return masks


def is_proper(graph: CubicGraph, coloring: EdgeColoring, k: int | None = None) -> bool:
    """True iff every vertex sees 3 distinct colors, all within 1..k."""
    _check_total(graph, coloring)
    k = coloring.k if k is None else k
    return all(c <= k for c in coloring.colors) and all(
        mask.bit_count() == 3 for mask in _palette_masks(graph, coloring)
    )


def _classify(size: int) -> EdgeClass:
    """The class of an edge whose two palettes hold `size` colors together."""
    if size == 3:
        return EdgeClass.POOR
    if size == 5:
        return EdgeClass.RICH
    return EdgeClass.ABNORMAL


def classify_all(graph: CubicGraph, coloring: EdgeColoring) -> tuple[EdgeClass, ...]:
    _check_total(graph, coloring)
    masks = _palette_masks(graph, coloring)
    if any(mask.bit_count() != 3 for mask in masks):
        raise ImproperColoringError("classification requires a proper coloring")
    return tuple(_classify((masks[u] | masks[v]).bit_count()) for u, v in graph.edges)


def abnormal_set(graph: CubicGraph, coloring: EdgeColoring) -> frozenset[int]:
    """The set N_G(c) of abnormal edge ids."""
    classes = classify_all(graph, coloring)
    return frozenset(e for e, cls in enumerate(classes) if cls is EdgeClass.ABNORMAL)


def is_normal(graph: CubicGraph, coloring: EdgeColoring) -> bool:
    """True iff the proper coloring has no abnormal edge."""
    return not abnormal_set(graph, coloring)


# ---------------------------------------------------------------------------
# Coloring files: header line "k", then one "edge_id color" line per edge
# ---------------------------------------------------------------------------

def write_coloring(coloring: EdgeColoring) -> str:
    lines = [str(coloring.k)]
    lines.extend(f"{eid} {c}" for eid, c in enumerate(coloring.colors))
    return "\n".join(lines) + "\n"


def read_coloring(text: str) -> EdgeColoring:
    """Parse a coloring file: a positive color count k, then edge ids
    0..len-1, each once, with a color in 1..k.  The length is checked
    against a graph where the two meet (`_check_total`)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty coloring input")
    try:
        k = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"bad coloring header {lines[0]!r}") from exc
    if k < 1:
        raise ParseError(f"coloring header {k} is not a positive color count")
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
        if not 1 <= c <= k:
            raise ParseError(f"edge {eid}: color {c} outside 1..{k}")
        assignment[eid] = c
    ids = range(len(assignment))
    if set(assignment) != set(ids):
        raise ParseError(f"coloring must cover edge ids 0..{len(ids) - 1} exactly")
    return EdgeColoring(k, tuple(assignment[e] for e in ids))
