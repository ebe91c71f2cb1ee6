"""Graph constructions and the coloring-extension procedures.

A deletion is a tuple of plain edge ids of G: a construction keeps G's other
edge ids in increasing order, and an id outside 0..m-1 raises
ValueError("unknown edge id ...").  Every construction lays its edges out
copy-major so callers can locate a copy by arithmetic alone:

* disjoint_copies:        copy i owns edge ids [i*m, (i+1)*m)
* cyclic_join_one_edge:   copy i owns [i*(m-1), (i+1)*(m-1)), then the t
                          joining edges y_i -- x_{i+1 mod t}
* cyclic_join_two_edges:  copy i owns [i*(m-2), (i+1)*(m-2)), then per step
                          the pair d_i -- a_{i+1}, c_i -- b_{i+1}
* vertex_replacement:     copy w owns [w*(m-3), (w+1)*(m-3)), then one edge
                          per host edge, in host edge id order
* two_cut_connection:     first graph's kept edges, second graph's kept
                          edges, then the two cross edges x1--x2, y1--y2

Within a copy, kept edges appear in increasing original edge id order, so
original id <-> copy position is a sorted-list lookup.

The extensions restore deleted edges of G from a proper 5-edge-coloring of
the rest, given as a dict edge id -> color:

* extend_one_edge(G, colors, e)                one edge; at most 5 abnormal
* extend_vertex_star(G, colors, v, external)   v's star; at most 7 abnormal
* extend_two_edges(G, colors, e1, e2)          end-edges of a 3-edge path;
                                               at most 9 abnormal

All three color the removed edges in order with the smallest color missing
at both ends (the star's first edge copies `external`) and verify that the
result is proper.  `pigeonhole_demo` completes its clean copy with the same
greedy completion: one call for every variant, with the copied color only for
vertex replacement and nothing to restore for disjoint copies.

Without a given coloring, `pigeonhole_demo` solves the composite with one
`min_abnormal` call at budget copies - 1.  The solver first probes each
bridgeless component for a normal coloring and runs
the budgeted search only when the probe proves there is none, so a
composite with a normal coloring costs one normal-coloring search.  A node
limit that stops a probe would give LIMIT with no witness; the demo sets no
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import EdgeClass, EdgeColoring, abnormal_set, classify_all, is_proper, palette
from .errors import ImproperColoringError, VerificationError
from .graphs import CubicGraph, catalog, connectivity_report, enumerate_paths_of_length_three
from .solver import SearchConfig, min_abnormal

_ALL_COLORS = frozenset(range(1, 6))

# Proper 5-edge-coloring of the 3-cube with exactly two abnormal edges
# (edge ids follow catalog("q3")).  Lexicographically minimal such coloring;
# the regeneration test re-derives it by exhaustive search.
Q3_TWO_ABNORMAL = (1, 2, 3, 2, 3, 1, 4, 4, 4, 5, 5, 3)

# Colors of the seven edges added by the K4 gadget, in construction order
#   (w0,w2), (w0,w3), (w1,w2), (w1,w3), (w2,w3), u--w0, v--w1
# valid after the color permutation putting c(e)=1, S(u)={1,2,3},
# S(v)={1,2,4}.  Both cross edges keep color 1, so every palette of the host
# graph is unchanged, and exactly the two cross edges come out abnormal.
# Lexicographically minimal table; regenerated by the test suite.
K4_GADGET_COLORS = (2, 5, 5, 2, 1, 1, 1)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _kept_edges(graph: CubicGraph, removed: Sequence[int]) -> list[int]:
    """G's edge ids minus `removed`, in increasing order."""
    for eid in removed:
        if not (0 <= eid < graph.m):
            raise ValueError(f"unknown edge id {eid}")
    return [e for e in range(graph.m) if e not in removed]


def check_copies(t: int, least: int = 1) -> None:
    """The one copy-count check, and its message: every construction that
    takes a copy count t calls it, and so does `construct` for the variants
    that never read t."""
    if t < least:
        raise ValueError(f"t must be at least {least}")


def _copies(edges: Sequence[tuple[int, int]], t: int, n: int) -> list[tuple[int, int]]:
    """t copies of an edge list, copy i shifted onto vertices [i*n, (i+1)*n)."""
    return [(i * n + u, i * n + v) for i in range(t) for u, v in edges]


def disjoint_copies(graph: CubicGraph, t: int) -> CubicGraph:
    """t disjoint labeled copies; copy i lives on vertices [i*n, (i+1)*n)."""
    check_copies(t)
    return CubicGraph(t * graph.n, tuple(_copies(graph.edges, t, graph.n)))


def cyclic_join_one_edge(graph: CubicGraph, eid: int, t: int) -> CubicGraph:
    """Join t copies of G-e in a ring: copy i's y-stub to copy i+1's x-stub.

    e = xy with x < y.  The pairing is one fixed choice among the consistent
    ones; any of them yields a cubic graph.
    """
    check_copies(t)
    kept = _kept_edges(graph, (eid,))
    x, y = graph.edges[eid]
    n = graph.n
    edges = _copies([graph.edges[f] for f in kept], t, n)
    edges.extend((i * n + y, ((i + 1) % t) * n + x) for i in range(t))
    return CubicGraph(t * n, tuple(edges))


def cyclic_join_two_edges(graph: CubicGraph, e1: int, e2: int, t: int) -> CubicGraph:
    """Join t copies of G-e1-e2 cyclically: d_i a_{i+1} and c_i b_{i+1}.

    e1 = ab and e2 = cd must be independent; t >= 2.
    """
    check_copies(t, 2)
    kept = _kept_edges(graph, (e1, e2))
    a, b = graph.edges[e1]
    c, d = graph.edges[e2]
    if e1 == e2 or {a, b} & {c, d}:
        raise ValueError("the two designated edges must be independent")
    n = graph.n
    edges = _copies([graph.edges[f] for f in kept], t, n)
    for i in range(t):
        nxt = ((i + 1) % t) * n
        edges.append((i * n + d, nxt + a))
        edges.append((i * n + c, nxt + b))
    return CubicGraph(t * n, tuple(edges))


def vertex_replacement(host: CubicGraph, graph: CubicGraph, v: int) -> CubicGraph:
    """Replace every host vertex with a copy of G-v.

    G-v keeps G's vertex order (u becomes u - 1 for u > v).  The host's
    incident edges at each vertex, in increasing edge id order, attach to the
    copy's stubs: the far ends of v's edges, in increasing edge id order.
    """
    if not (0 <= v < graph.n):
        raise ValueError(f"unknown vertex {v}")
    star = graph.incidence[v]
    n_copy = graph.n - 1
    copy = [
        (a - (a > v), b - (b > v)) for a, b in (graph.edges[f] for f in _kept_edges(graph, star))
    ]
    stubs = [u - (u > v) for u in graph.neighbors[v]]
    edges = _copies(copy, host.n, n_copy)
    for f, (w1, w2) in enumerate(host.edges):
        r1 = host.incidence[w1].index(f)
        r2 = host.incidence[w2].index(f)
        edges.append((w1 * n_copy + stubs[r1], w2 * n_copy + stubs[r2]))
    return CubicGraph(host.n * n_copy, tuple(edges))


def two_cut_connection(
    g1: CubicGraph, e1: int, g2: CubicGraph, e2: int
) -> CubicGraph:
    """Splice two cubic graphs: drop e1 = x1y1 and e2 = x2y2, add x1x2, y1y2."""
    kept1 = _kept_edges(g1, (e1,))
    kept2 = _kept_edges(g2, (e2,))
    x1, y1 = g1.edges[e1]
    x2, y2 = g2.edges[e2]
    off = g1.n
    edges = [g1.edges[f] for f in kept1]
    edges.extend((off + u, off + v) for u, v in (g2.edges[f] for f in kept2))
    edges.append((x1, off + x2))
    edges.append((y1, off + y2))
    return CubicGraph(g1.n + g2.n, tuple(edges))


# ---------------------------------------------------------------------------
# Coloring extensions
# ---------------------------------------------------------------------------

def _complete(
    graph: CubicGraph,
    colors: dict[int, int],
    removed: Sequence[int],
    first: Optional[int] = None,
) -> EdgeColoring:
    """Color the removed edges in order, each with the smallest color missing
    at both of its ends; the first one takes `first` instead, when given.

    `colors` must be a proper 5-edge-coloring of G minus `removed`, keyed by
    edge id.  An edge meets at most four other edges, so the greedy choice
    always exists.
    """
    kept = _kept_edges(graph, removed)
    if set(colors) != set(kept) or not all(1 <= colors[e] <= 5 for e in kept):
        raise ImproperColoringError("the partial coloring must be proper")
    for v in range(graph.n):
        at_v = [colors[e] for e in graph.incidence[v] if e in colors]
        if len(set(at_v)) != len(at_v):
            raise ImproperColoringError("the partial coloring must be proper")
    assignment = dict(colors)
    for eid in removed:
        x, y = graph.edges[eid]
        seen = {assignment[f] for f in graph.incidence[x] + graph.incidence[y] if f in assignment}
        if first is None:
            assignment[eid] = min(_ALL_COLORS - seen)
        elif first in seen:
            raise VerificationError("external color collides at the copied stub")
        else:
            assignment[eid] = first
            first = None
    out = EdgeColoring(5, tuple(assignment[e] for e in range(graph.m)))
    if not is_proper(graph, out, 5):
        raise VerificationError("extension produced an improper coloring")
    return out


def extend_one_edge(graph: CubicGraph, colors: dict[int, int], eid: int) -> EdgeColoring:
    """Color the removed edge eid with the smallest color missing at both ends.

    `colors` is a proper 5-edge-coloring of G - eid, keyed by edge id.
    """
    return _complete(graph, colors, (eid,))


def extend_vertex_star(
    graph: CubicGraph, colors: dict[int, int], v: int, external: int
) -> EdgeColoring:
    """Restore the star of a deleted vertex v: its first edge (by id) copies
    the color `external`, the other two are colored greedily.

    `colors` is a proper 5-edge-coloring of G - v, keyed by edge id.
    `external` is the color of the outside edge that took the first star
    edge's place at its stub vertex, so copying it keeps that vertex's
    palette unchanged.
    """
    if not (0 <= v < graph.n):
        raise ValueError(f"unknown vertex {v}")
    return _complete(graph, colors, graph.incidence[v], external)


def extend_two_edges(
    graph: CubicGraph, colors: dict[int, int], e1: int, e2: int
) -> EdgeColoring:
    """Color the removed edges e1 and e2, each with the smallest color
    missing at both of its endpoints.

    `colors` is a proper 5-edge-coloring of G - e1 - e2, keyed by edge id.
    The two edges must be the end-edges of a path of length three in G,
    which caps the edges their restoration can disturb at nine.
    """
    if not any({x, z} == {e1, e2} for x, _, z in enumerate_paths_of_length_three(graph)):
        raise ValueError("the removed edges must be end-edges of a 3-edge path")
    return _complete(graph, colors, (e1, e2))


# ---------------------------------------------------------------------------
# The K4 gadget and the k-abnormal family
# ---------------------------------------------------------------------------

def _normalizing_permutation(
    graph: CubicGraph, coloring: EdgeColoring, eid: int
) -> dict[int, int]:
    """Color permutation sending c(e) to 1, the shared palette pair to {1,2},
    the rest of S(u) to 3 and the rest of S(v) to 4."""
    u, v = graph.edges[eid]
    s_u = palette(graph, coloring, u)
    s_v = palette(graph, coloring, v)
    shared = s_u & s_v
    ce = coloring.colors[eid]
    (other_shared,) = shared - {ce}
    (third_u,) = s_u - shared
    (third_v,) = s_v - shared
    (last,) = _ALL_COLORS - {ce, other_shared, third_u, third_v}
    return {ce: 1, other_shared: 2, third_u: 3, third_v: 4, last: 5}


def k4_gadget_extend(
    graph: CubicGraph, coloring: EdgeColoring, eid: int
) -> tuple[CubicGraph, EdgeColoring]:
    """Splice a K4 onto an abnormal edge, extending the coloring so the
    result has exactly one more abnormal edge.

    Colors are permuted so the designated edge has the canonical abnormal
    shape, then the frozen gadget table colors the seven new edges.
    The coloring must be a proper 5-edge-coloring.
    """
    if not is_proper(graph, coloring, 5):
        raise ImproperColoringError("the K4 gadget needs a proper 5-edge-coloring")
    kept = _kept_edges(graph, (eid,))
    classes = classify_all(graph, coloring)
    if classes[eid] is not EdgeClass.ABNORMAL:
        raise ValueError(f"edge {eid} must be abnormal")
    before = classes.count(EdgeClass.ABNORMAL)
    perm = _normalizing_permutation(graph, coloring, eid)
    normalized = coloring.permuted(perm)

    k4 = catalog("k4")
    combined = two_cut_connection(graph, eid, k4, 0)
    colors = [normalized.colors[f] for f in kept]
    colors.extend(K4_GADGET_COLORS)
    extended = EdgeColoring(5, tuple(colors))
    if not is_proper(combined, extended, 5):
        raise VerificationError("gadget extension is not proper")
    after = len(abnormal_set(combined, extended))
    if after != before + 1:
        raise VerificationError(
            f"gadget extension changed the abnormal count from {before} to {after}"
        )
    return combined, extended


def k_abnormal_example(k: int) -> tuple[CubicGraph, EdgeColoring]:
    """A cubic graph on 8 + 4(k-2) vertices with a proper 5-edge-coloring
    having exactly k abnormal edges.

    k = 1 is rejected: no proper 5-edge-coloring of any cubic graph has
    exactly one abnormal edge.  The base case is the two-abnormal coloring
    of the 3-cube; each further step splices one K4 gadget.
    """
    if k < 2:
        raise ValueError("k must be at least 2; a single abnormal edge is impossible")
    graph = catalog("q3")
    coloring = EdgeColoring(5, Q3_TWO_ABNORMAL)
    for _ in range(k - 2):
        eid = min(abnormal_set(graph, coloring))
        graph, coloring = k4_gadget_extend(graph, coloring, eid)
    return graph, coloring


# ---------------------------------------------------------------------------
# Pigeonhole demonstrations
# ---------------------------------------------------------------------------

# variant -> (abnormal edges the extension may leave, the connectivity G
# needs); the nonzero bounds are 2k+1 for k = 2, 3, 4.  The builders check
# the copy count.
_VARIANTS = {
    "disjoint": (0, lambda r: r.bridgeless),
    "cyclic1": (5, lambda r: r.edge_connectivity >= 2),
    "vertex_replacement": (7, lambda r: r.edge_connectivity >= 3),
    "cyclic2": (9, lambda r: r.cyclically_4_edge_connected),
}
DEMO_VARIANTS = tuple(_VARIANTS)


def _variant(name: str) -> tuple:
    if name not in _VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {DEMO_VARIANTS}")
    return _VARIANTS[name]


@dataclass(frozen=True)
class DemoReport:
    variant: str
    t: int
    n_vertices: int
    abnormal_h: int
    clean_copy_index: Optional[int]
    abnormal_final: Optional[int]
    bound: int
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "variant": self.variant,
            "t": self.t,
            "nV_H": self.n_vertices,
            "abnormal_H": self.abnormal_h,
            "clean_copy_index": self.clean_copy_index,
            "abnormal_final": self.abnormal_final,
            "bound": self.bound,
            "pass": self.passed,
        }


def default_three_path(graph: CubicGraph) -> tuple[int, int]:
    """End-edges of the first 3-edge path, scanning middle edges by id."""
    for e1, _, e2 in enumerate_paths_of_length_three(graph):
        return e1, e2
    raise ValueError("no path of length three found")


def replacement_host(t: int) -> CubicGraph:
    """Smallest catalog 3-connected bipartite cubic host on >= 2t vertices."""
    check_copies(t)
    if 2 * t <= 6:
        return catalog("k33")
    return catalog("prism", t if t % 2 == 0 else t + 1)


@dataclass(frozen=True)
class _Composite:
    h: CubicGraph
    removed: tuple[int, ...]  # edge ids of G missing from each copy
    units: int                # number of copies for the pigeonhole
    host: Optional[CubicGraph] = None  # vertex replacement's host graph


def _build_composite(graph: CubicGraph, variant: str, t: int) -> _Composite:
    if variant == "disjoint":
        return _Composite(disjoint_copies(graph, t), (), t)
    if variant == "cyclic1":
        return _Composite(cyclic_join_one_edge(graph, 0, t), (0,), t)
    if variant == "cyclic2":
        e1, e2 = default_three_path(graph)
        return _Composite(cyclic_join_two_edges(graph, e1, e2, t), (e1, e2), t)
    host = replacement_host(t)
    return _Composite(vertex_replacement(host, graph, 0), graph.incidence[0], host.n, host)


def composite_graph(graph: CubicGraph, variant: str, t: int) -> CubicGraph:
    """The composite graph a demo run would build for this variant and t."""
    _variant(variant)
    return _build_composite(graph, variant, t).h


def pigeonhole_demo(
    graph: CubicGraph,
    variant: str,
    t: int,
    coloring_of_h: EdgeColoring | None = None,
) -> DemoReport:
    """Build the composite graph, locate a copy free of abnormal edges, restore
    that copy's removed edges with the extensions' greedy completion, and
    check the final abnormal count against the claimed constant (0 / 5 / 7 / 9).

    The composite's coloring is solved for when coloring_of_h is None.  A
    given coloring must be a proper 5-edge-coloring of the composite, with
    one color per composite edge (`composite_graph` builds the same
    composite, so its edge ids are the ones to color).

    The clean copy exists whenever the composite coloring has fewer abnormal
    edges than copies; if not, the report carries clean_copy_index None and
    pass False instead of failing hard.
    """
    bound, needs = _variant(variant)
    if not needs(connectivity_report(graph)):
        raise ValueError(f"input graph fails the connectivity required by {variant!r}")

    built = _build_composite(graph, variant, t)
    h, removed, units, host = built.h, built.removed, built.units, built.host
    span = graph.m - len(removed)  # edges per copy in h

    if coloring_of_h is None:
        coloring_of_h = min_abnormal(h, SearchConfig(k=5, abnormal_budget=units - 1)).witness
        if coloring_of_h is None:
            raise VerificationError(
                f"found no proper coloring of the composite with fewer than {units} abnormal edges"
            )
    if not is_proper(h, coloring_of_h, 5):
        raise ImproperColoringError("supplied composite coloring is not proper")

    bad = abnormal_set(h, coloring_of_h)

    clean = None
    for i in range(units):
        if not any(i * span <= e < (i + 1) * span for e in bad):
            clean = i
            break
    if clean is None:
        if len(bad) < units:
            # copies own disjoint edge ranges, so fewer abnormal edges than
            # copies must leave one copy untouched
            raise VerificationError(
                "pigeonhole violated: fewer abnormal edges than copies, no clean copy"
            )
        return DemoReport(variant, t, h.n, len(bad), None, None, bound, False)

    copy_colors = {
        f: coloring_of_h.colors[clean * span + pos]
        for pos, f in enumerate(_kept_edges(graph, removed))
    }
    # vertex replacement: the first star edge copies the host edge at the copy's first stub
    first = None if host is None else coloring_of_h.colors[units * span + host.incidence[clean][0]]
    final = len(abnormal_set(graph, _complete(graph, copy_colors, removed, first)))
    return DemoReport(variant, t, h.n, len(bad), clean, final, bound, final <= bound)
