"""Exact minimization of abnormal edges over proper k-edge-colorings.

`min_abnormal` splits G at its bridges and solves each piece on its own.
The pieces are the components of G minus its bridges (the edges in no
cycle, read off `CubicGraph._cut_space`).  A piece is searched in G's own
vertex and edge ids, over the edges at its vertices, the bridges among them.
A bridge's far end lies in another piece, so its star never fills during
this piece's search and the bridge is never classified.  The minimum of G
is the sum of the piece minima, for every k >= 3:

* a coloring of G restricts to a coloring of every piece, in which every
  non-bridge edge has the same two palettes, so it is abnormal in G iff it
  is abnormal in its piece.  A bridge may be abnormal in G, so G has at
  least the sum of the piece counts;
* conversely, walk the tree of pieces top-down from a root piece.  A child
  piece meets its parent at one bridge xy, x in the parent; permute the
  child's colors so that the bridge color and the other two colors at y
  become those at x (any bijection of the k colors will do).  The palettes
  at x and y are then equal, so the bridge is poor, and the glued coloring
  has exactly the sum of the piece counts as abnormal edges.

Each piece runs the same depth-first branch and bound over edge colors, a
recursive `search(committed, max_used)` over two plain lists indexed by G's
ids, built once per solve: the color of each edge and the palette bitmask
of each vertex.  In a proper partial coloring a vertex has as many colored
edges as its palette has colors, so a star is full when its palette holds 3.

* the three edges at the piece's lowest vertex are pre-colored 1, 2, 3, and
  a color may only be introduced once all smaller colors appear somewhere
  (color classes are interchangeable, so both reductions preserve the
  minimum).  A piece with m edges therefore uses at most min(k, m) colors;
* the branch edge is the uncolored edge whose endpoint stars forbid the most
  colors, ties broken by lowest edge id.  The uncolored edge ids are kept
  in a list in id order: the branch edge leaves it while its colors are
  tried and goes back at its old index, so the scan walks only that list.
  Each end of an uncolored edge has at most 2 other colored edges, so no
  edge forbids more than 4 colors, and the scan stops at the first edge
  that forbids 4;
* an edge is classified once both endpoint stars are full.  Coloring uv can
  fill the star of u, of v, or both, and a star it fills has just become
  full.  So the edges at u whose other star is full are counted first, then
  those at v except the ones going back to u, which u already counted; each
  counts as abnormal when the two palettes together hold 4 colors;
* undoing a color is one XOR per palette, since the color was absent from
  both endpoint stars, so a finished search leaves both lists clean;
* the incumbent bound starts at min(m, budget) + 1, so one test
  `count < best` cuts both the branches that cannot beat the incumbent and
  those over the configured budget.  It is made before recursing: a child
  that fails it counts as a node but is never called;
* a child with no slack, count == best - 1, is pruned the same way when the
  forward check finds a vertex x with 2 colored edges whose last edge xw
  has no color c that keeps normal every edge from x to a full star: c
  must be in neither palette at x and w, x's palette plus c and a full
  neighbor's must not hold exactly 4 colors together, and when w has 2
  colored edges too, xw itself must stay normal.  The check looks at the two ends
  of the edge just colored and, at an end whose star that edge filled, at
  its neighbors with 2 colored edges.  Palettes only grow, so a full
  star's palette is final and x's will be its two colors plus c.  So in
  every completion one of the tested edges is abnormal, and none of those
  is counted yet: no leaf below best lies in the subtree.  A color above
  the child's largest is in no palette, so the next new color stands for
  all of them.  The search therefore meets the same incumbents in the same
  order, and only node counts move;
* a search for a normal coloring (cap 0, k <= 5, a piece that no bridge
  meets, which is a whole component of G) also prunes a child by the parity
  cut.  A normal coloring is a Petersen-coloring (F. Jaeger, "On
  five-edge-colorings of cubic graphs and nowhere-zero flow problems", Ars
  Combin. 20-B, 1985): it sends uv of color c to edge_at[(S(u), c)], the
  same model edge from both ends (see `petersen`).  Let class(S, c) be the
  set of the model's fundamental cycles through edge_at[(S, c)]
  (`CubicGraph._cut_space`); model edges form a cut exactly when their
  classes XOR to 0.  A model star is a cut, and an inner edge of a vertex
  set X names one model edge from both ends, so the classes of the boundary
  of X XOR to 0.  At cap 0 a full star's palette is final and every
  classified edge is normal, so an edge from an unfilled vertex to a full
  vertex y already has its final class, read at y: a component of the
  unfilled vertices whose boundary classes do not XOR to 0 has no normal
  completion.  The full set's boundary XORs to 0 as it stands, and it is the
  disjoint union of the unfilled components' boundaries; so when all but one
  pass, the last passes too.  At the root the unfilled vertices are the
  component minus its start vertex, one component, since a bridgeless cubic
  multigraph is 2-connected, so it passes.  A child's components are its
  parent's, except where a star it filled splits one.  So the check runs
  only at a fill whose unfilled neighbors number at least 2, and only on the
  parts of such a split, all but one.  It first looks for a path of at most
  3 unfilled steps from each neighbor to the first; only when there is none
  do two breadth-first searches from the pair take turns until they meet or
  one runs out, and the one that runs out has found a whole component, which
  is checked.  Only subtrees without a normal coloring go, so again only node
  counts move;
* the same searches check G's own 3-edge cuts.  An edge is known once one
  of its ends is full: its model edge is then fixed, read at that end.  The
  lemma above holds for every edge cut of the component, so the classes of
  a 3-edge cut's model edges XOR to 0.  No two of them are equal, as that
  would leave the third a class of 0, which no model edge has; so they
  form a 3-edge cut of the model, and the model's only 3-edge cuts are its
  10 stars.  So once two edges of a cut are known, their classes XOR to the
  class of a model edge M, the third edge of their common model star, or
  the child is pruned.  The third edge must then be able to name M: its
  color is M's, or M's color is free at both its ends, and each end's
  palette fits inside one of M's two end palettes.  Once all three are
  known, their classes XOR to 0.  The check runs at each fill, on the cuts
  through the edges that the fill has just made known
  (`CubicGraph._three_cuts`: the cuts of three pairwise vertex-disjoint
  edges, so no star, which the search keeps proper anyway).  A listed cut
  holds no bridge: a bridge's set is empty, so the other two would form a
  2-cut, whose model edges are equal, and the bridge lies in no piece that
  this search colors.  Nor does a cut span two components, whose colorings
  the lemma does not link; and since an edge's set holds only cycles of its
  own piece, three non-bridge edges whose sets XOR to 0 lie in one piece.
  Only subtrees without a normal coloring go, so the probe meets the same
  first normal coloring, the witness cannot move, and only node counts
  move.

A piece that no bridge meets, that is a bridgeless component of G, is first
probed with cap 0: the search looks for a normal coloring.  Only when the
probe proves there is none and the budget is not 0 does the plain search
run with the configured cap.  At k = 3 every proper coloring is normal, so
the plain search runs alone.  A piece with a bridge gets the plain search
alone; for k <= 5 a leaf piece never has a normal coloring, as two copies
glued at its bridge would be a normal coloring of a cubic graph with a
bridge.  The budget and the node limit bound sums over the pieces and their
searches: each search gets what the ones before it left over, so a limit
inside a probe ends in LIMIT with no witness.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from .coloring import EdgeColoring
from .graphs import CubicGraph
from .petersen import canonical_petersen

_POP = tuple(i.bit_count() for i in range(1 << 7))  # palettes within colors 1..7


class _BitCount:  # _POP's subscript for palettes of any width, a little slower
    __getitem__ = staticmethod(int.bit_count)


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    LIMIT = "limit"


@dataclass(frozen=True)
class SearchConfig:
    """Solver knobs: colors (at least 3, as every vertex needs 3), an optional
    bound on abnormal edges (results above it are reported INFEASIBLE), and
    an optional node limit."""

    k: int = 5
    abnormal_budget: Optional[int] = None
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("k must be at least 3: a cubic graph needs 3 colors at every vertex")
        if self.abnormal_budget is not None and self.abnormal_budget < 0:
            raise ValueError("abnormal_budget must be non-negative")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be non-negative")


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    best_count: int  # -1 when no coloring satisfied the constraints
    witness: Optional[EdgeColoring]
    nodes_explored: int


class _NodeLimit(Exception):
    pass


@dataclass(frozen=True)
class _Piece:
    """A component of G minus its bridges, in G's ids: `eids` are the edges
    at its vertices, the bridges among them, in id order, and `start` is
    its lowest vertex.  `via` is the bridge to the parent piece and `root`
    its end in this piece; a component's first piece has via -1.  `bridged`
    tells whether any bridge meets the piece."""

    eids: list[int]
    start: int
    via: int
    root: int
    bridged: bool


def _pieces(graph: CubicGraph) -> list[_Piece]:
    """The pieces of G, each after its parent in the tree of pieces."""
    bridges = {eid for eid, cycles in enumerate(graph._cut_space[1]) if not cycles}
    inc, stars = graph.incidence, graph._stars
    seen = [False] * graph.n
    pieces = []
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [(start, -1)]
        for root, via in queue:  # breadth first over the tree of pieces
            members = [root]
            for v in members:  # flood fill across non-bridge edges
                for eid, w in stars[v]:
                    if not seen[w]:
                        seen[w] = True
                        if eid in bridges:
                            queue.append((w, eid))
                        else:
                            members.append(w)
            eids = sorted({eid for v in members for eid in inc[v]})
            pieces.append(_Piece(eids, min(members), via, root, not bridges.isdisjoint(eids)))
    return pieces


def _dead_end(
    graph: CubicGraph, color: list[int], pal: list[int], pop
) -> Callable[[int, int], bool]:
    """The forward check over one solve's color and palette lists:
    `dead(v, colors)` tells whether v, an end of the edge just colored,
    leaves some vertex x with 2 colored edges whose last edge xw has no
    color in the bitmask `colors` that keeps every edge from x to a full
    star normal.  That is v itself, or, when v's star is full, a neighbor
    of v."""
    star, nbrs = graph._stars, graph.neighbors

    def stuck(x: int, colors: int) -> bool:
        px = pal[x]
        free = colors & ~px
        for f, y in star[x]:
            q = pal[y]
            if not color[f]:
                # with 2 colored edges at w too, xw joins two final palettes
                # that share one color besides its own, whatever it is
                if pop[q] == 2 and pop[px | q] == 3:
                    return True
                free &= ~q
            elif pop[q] == 3:
                # xy is abnormal when the final palettes hold 4 colors
                # together: if the full star holds both of x's colors, c
                # must be its third; else c must be new to it
                free &= q if px | q == q else ~q
        return not free

    def dead(v: int, colors: int) -> bool:
        size = pop[pal[v]]
        if size == 2:
            return stuck(v, colors)
        if size == 3:
            for x in nbrs[v]:
                if pop[pal[x]] == 2 and stuck(x, colors):
                    return True
        return False

    return dead


@lru_cache(maxsize=1)
def _classes() -> tuple[int, ...]:
    """class(S, c) at index S << 3 | c, for S the bitmask of a palette."""
    model, table = canonical_petersen(), [0] * (32 << 3)
    for (palette, c), eid in model.edge_at.items():
        table[sum(1 << (x - 1) for x in palette) << 3 | c] = model.graph._cut_space[1][eid]
    return tuple(table)


@lru_cache(maxsize=1)
def _model_edges() -> dict[int, tuple[int, int]]:
    """Per model edge class: the bit of the edge's color c, and a 32-bit
    mask of the palettes without c that fit inside one of its end palettes.
    A set of fundamental cycles that no model edge has reads as (0, 0),
    which no edge fits."""
    table: dict[int, tuple[int, int]] = {}
    for key, cls in enumerate(_classes()):
        if cls:  # one key per end of the edge
            end, bit = key >> 3, 1 << (key & 7) >> 1
            fits = sum(1 << p for p in range(32) if p | end == end and not p & bit)
            table[cls] = (bit, table.get(cls, (0, 0))[1] | fits)
    return table


def _parity_cut(
    graph: CubicGraph, color: list[int], pal: list[int]
) -> Callable[[int, int], bool]:
    """The parity cut over one solve's color and palette lists, for
    palettes within colors 1..5: `cut(u, v)` tells whether coloring uv,
    with every classified edge normal, filled a star through one of whose
    edges a 3-edge cut of G has no normal completion, or whose unfilled
    neighbors now lie in different components of the unfilled vertices,
    one of which fails the parity (module docstring)."""
    star, nbrs, classes, pop = graph._stars, graph.neighbors, _classes(), _POP
    ends, model = graph.edges, _model_edges()
    # per vertex x: (edge e at x, e's other end, the cut's other two edges)
    cuts = [()] * graph.n
    for e, f, g in graph._three_cuts:
        for a, b, c in ((e, f, g), (f, e, g), (g, e, f)):
            x, y = ends[a]
            cuts[x] += ((a, y, b, c),)
            cuts[y] += ((a, x, b, c),)
    seen = [0] * graph.n  # stamp-marked, so no call has to clear it
    stamp = 0

    def known(f: int) -> int:
        """f's class once an end of f is full, else 0, which no class is."""
        a, b = ends[f]
        p = pal[a] if pop[pal[a]] == 3 else pal[b]
        return classes[p << 3 | color[f]] if pop[p] == 3 else 0

    def broken(x: int, other: int) -> bool:
        """Whether a 3-edge cut through an edge that filling x's star has
        just made known (its far end is `other`, the other end of the edge
        just colored, or not full) has two known edges whose model star's
        third edge the third cannot become, or three known ones whose
        classes do not XOR to 0."""
        px = pal[x] << 3
        for e, y, f, g in cuts[x]:
            if y != other and pop[pal[y]] == 3:
                continue
            cf, cg = known(f), known(g)
            rest = classes[px | color[e]] ^ cf ^ cg
            if cf and cg:
                if rest:
                    return True
            elif cf or cg:
                # the third edge h must become the model edge of class rest
                h = g if cf else f
                a, b = ends[h]
                bit, fits = model.get(rest, (0, 0))
                q = 1 << color[h] >> 1  # 0 while h is uncolored
                if q | bit != bit or not (fits >> (pal[a] ^ q) & fits >> (pal[b] ^ q) & 1):
                    return True
        return False

    def apart(x: int, y: int) -> int:
        """Breadth first from x and from y in turn, one vertex a side per
        round, until the sides meet (-1) or one runs out: then 0 for x's
        side or 1 for y's, which found a whole component, or 2 when that
        component's boundary classes do not XOR to 0."""
        nonlocal stamp
        stamp += 2
        marks = (stamp - 1, stamp)
        seen[x], seen[y] = marks
        queues, acc = ([x], [y]), [0, 0]
        i = 0
        while True:
            for side in (0, 1):
                q = queues[side]
                if i == len(q):
                    return 2 if acc[side] else side
                mine, theirs = marks[side], marks[1 - side]
                for f, w in star[q[i]]:
                    pw = pal[w]
                    if pop[pw] == 3:
                        acc[side] ^= classes[pw << 3 | color[f]]
                    elif seen[w] != mine:
                        if seen[w] == theirs:
                            return -1
                        seen[w] = mine
                        q.append(w)
            i += 1

    def cut(u: int, v: int) -> bool:
        nonlocal stamp
        if pop[pal[u]] == 3:
            if cuts[u] and broken(u, v):
                return True
            nearby = nbrs[u]
            if pop[pal[v]] == 3:
                if cuts[v] and broken(v, u):
                    return True
                nearby = nearby + nbrs[v]
        elif pop[pal[v]] == 3:
            if cuts[v] and broken(v, u):
                return True
            nearby = nbrs[v]
        else:
            return False
        first = -1
        for w in nearby:
            if pop[pal[w]] == 3:
                continue
            if first < 0:
                # near: the first unfilled neighbor and its unfilled neighbors
                first = w
                stamp += 1
                near = stamp
                seen[w] = near
                for a in nbrs[w]:
                    if pop[pal[a]] < 3:
                        seen[a] = near
                continue
            if seen[w] == near:
                continue
            # the cheap test: within 3 unfilled steps of first
            for a in nbrs[w]:
                if pop[pal[a]] < 3:
                    b1, b2, b3 = nbrs[a]
                    if near in (seen[a], seen[b1], seen[b2], seen[b3]):
                        break
            else:
                side = apart(first, w)
                if side == 2:
                    return True
                if side == 0:
                    # first's component is whole and passed; the rest of the
                    # split lies with w
                    first = w
        return False

    return cut


def _search(
    graph: CubicGraph,
    state: tuple,
    piece: _Piece,
    k: int,
    cap: Optional[int],
    limit: Optional[int],
) -> tuple[SolveStatus, int, Optional[tuple[int, ...]], int]:
    """Branch and bound on one piece of G: (status, best count or -1, best
    coloring of `piece.eids` or None, nodes explored), for colorings with at
    most `cap` abnormal edges.  `state` holds the color and palette lists,
    all zero on entry and left so on return, the palette popcount table,
    and the forward check and the parity cut (None when k > 5 or every
    piece has a bridge) over those lists."""
    endpoints, nbrs, eids = graph.edges, graph.neighbors, piece.eids
    color, pal, pop, dead, cut = state
    # the parity cut holds only for normal colorings of a whole component
    if cap != 0 or piece.bridged:
        cut = None
    m = len(eids)
    # the budget is folded into the incumbent bound
    best = m + 1 if cap is None else min(m, cap) + 1
    best_colors: Optional[tuple[int, ...]] = None
    nodes = 0
    stop = -1 if limit is None else limit
    # the (color, bit) pairs a node may try, indexed by the largest color
    # used; the piece never uses more than min(k, m) colors
    top = min(k, m)
    pairs = [(c, 1 << (c - 1)) for c in range(1, top + 1)]
    choices = [tuple(pairs[: used + 1]) for used in range(top + 1)]
    masks = [(1 << len(tried)) - 1 for tried in choices]  # the same colors, as bits

    def search(committed: int, max_used: int) -> None:
        nonlocal best, best_colors, nodes
        eid, score = -1, -1
        for f in uncolored:
            a, b = endpoints[f]
            s = pop[pal[a] | pal[b]]
            if s > score:
                eid, score = f, s
                if s == 4:  # no edge forbids more: 2 colored edges at each end
                    break
        if eid < 0:
            best, best_colors = committed, tuple([color[f] for f in eids])
            return
        i = uncolored.index(eid)
        del uncolored[i]
        u, v = endpoints[eid]
        forbidden = pal[u] | pal[v]
        for c, bit in choices[max_used]:
            if forbidden & bit:
                continue
            if nodes == stop:
                raise _NodeLimit
            nodes += 1
            color[eid] = c
            pal[u] |= bit
            pal[v] |= bit
            count = committed
            if pop[pal[u]] == 3:
                for x in nbrs[u]:
                    if pop[pal[x]] == 3 and pop[pal[u] | pal[x]] == 4:
                        count += 1
            if pop[pal[v]] == 3:
                for x in nbrs[v]:
                    if x != u and pop[pal[x]] == 3 and pop[pal[v] | pal[x]] == 4:
                        count += 1
            used = c if c > max_used else max_used
            # a child over the bound, or with no slack left and a dead end
            # the forward check finds or a split the parity cut refutes, is
            # pruned without a call
            if count < best and not (
                count == best - 1
                and (dead(u, masks[used]) or dead(v, masks[used]) or (cut and cut(u, v)))
            ):
                search(count, used)
            # bit is not in forbidden, so XOR restores both palettes
            pal[u] ^= bit
            pal[v] ^= bit
            color[eid] = 0
        uncolored.insert(i, eid)

    # pre-color the star of the lowest vertex (proper colorings always
    # admit a color permutation putting 1, 2, 3 there in edge id order); no
    # edge is abnormal yet, since another full star needs a triple edge to
    # that vertex, whose palettes coincide
    for c, eid in enumerate(graph.incidence[piece.start], start=1):
        color[eid] = c
        for w in endpoints[eid]:
            pal[w] |= 1 << (c - 1)
    uncolored = [f for f in eids if not color[f]]  # id order, kept by search

    # search recurses once per colored edge, which may pass the default limit
    depth = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + m)
    try:
        search(0, 3)
        status = SolveStatus.INFEASIBLE if best_colors is None else SolveStatus.OPTIMAL
    except _NodeLimit:
        # no coloring has fewer than 0 abnormal edges
        status = SolveStatus.OPTIMAL if best == 0 else SolveStatus.LIMIT
    finally:
        sys.setrecursionlimit(depth)
        # search refers to itself through its closure; breaking that cycle
        # frees it, and all it holds, now rather than at the cycle
        # collector's next pass
        del search
        for f in eids:  # the pre-colored star, and whatever a node limit left
            color[f] = 0
            a, b = endpoints[f]
            pal[a] = pal[b] = 0
    if best_colors is None:
        return status, -1, None, nodes
    return status, best, best_colors, nodes


def _gluing(
    graph: CubicGraph, piece: _Piece, piece_colors: tuple[int, ...], colors: list[int], k: int
) -> list[int]:
    """A permutation of the piece's colors into 1..k, indexed by color, that
    takes the bridge color and the other two colors at the piece's end of
    its parent bridge to those at the parent's end, which `colors` holds
    already.  Both ends then see the same palette, so the bridge is poor."""
    bridge_first = lambda v: sorted(graph.incidence[v], key=lambda e: e != piece.via)
    ours = [piece_colors[piece.eids.index(e)] for e in bridge_first(piece.root)]
    theirs = [colors[e] for e in bridge_first(sum(graph.edges[piece.via]) - piece.root)]
    perm = dict(zip(ours, theirs))
    free = (c for c in range(1, k + 1) if c not in theirs)
    # the piece uses at most min(k, m) colors
    top = min(k, len(piece.eids))
    return [0] + [perm[c] if c in perm else next(free) for c in range(1, top + 1)]


def min_abnormal(graph: CubicGraph, cfg: SearchConfig | None = None) -> SolveResult:
    """Exact minimum of |N_G(c)| over proper k-edge-colorings of a cubic graph.

    G is split at its bridges and each bridge-free piece is searched on its
    own, in G's ids (see the module docstring); for k > 3 a piece that no
    bridge meets is first probed for a normal coloring, and searched with
    the configured budget only when it has none.  The minimum is the sum of
    the piece minima; the witness glues the piece witnesses top-down over
    the tree of pieces, each permuted so that the bridge to its parent is
    poor.

    Returns status OPTIMAL with a witness attaining the minimum, INFEASIBLE
    when no proper coloring satisfies the constraints (possible for k in
    {3, 4}; never for k >= 5 without a budget), or LIMIT when the node
    limit ran out before a proof.  The budget and the node limit bound sums
    over the pieces and their searches: each search gets what the ones
    before it left.  An infeasible piece makes G infeasible, and a LIMIT in
    any piece makes the result LIMIT; it carries a witness of G, with
    best_count abnormal edges, only when the stopped piece was the last and
    its plain search had found a coloring.  A limit inside a probe has found
    none, so it leaves no witness.  A piece stopped after a normal coloring
    was found is still OPTIMAL, and nodes_explored never exceeds the limit.
    """
    cfg = cfg or SearchConfig()
    k = cfg.k
    pieces = _pieces(graph)
    color, pal, pop = [0] * graph.m, [0] * graph.n, _POP if k <= 7 else _BitCount()
    # every piece's search reuses these; only pieces that no bridge meets
    # use the parity cut
    cut = None
    if k <= 5 and not all(piece.bridged for piece in pieces):
        cut = _parity_cut(graph, color, pal)
    state = (color, pal, pop, _dead_end(graph, color, pal, pop), cut)
    colors = [0] * graph.m
    total = nodes = 0
    status = SolveStatus.OPTIMAL
    for i, piece in enumerate(pieces):
        cap = None if cfg.abnormal_budget is None else cfg.abnormal_budget - total
        # probe only the pieces no bridge meets: for k <= 5 a leaf piece has
        # no normal coloring, since two copies glued at its bridge would give
        # a normal coloring of a cubic graph with a bridge, and probing every
        # piece costs bridged graphs about 44% more nodes.  At k = 3 every
        # proper coloring is normal, so the plain search is the probe
        probe = not piece.bridged and cap != 0 and k > 3
        for bound in (0, cap) if probe else (cap,):
            limit = None if cfg.node_limit is None else cfg.node_limit - nodes
            status, best, piece_colors, used = _search(graph, state, piece, k, bound, limit)
            nodes += used
            if status is not SolveStatus.INFEASIBLE:
                break
        if piece_colors is None or (status is SolveStatus.LIMIT and i < len(pieces) - 1):
            return SolveResult(status, -1, None, nodes)
        total += best
        perm = _gluing(graph, piece, piece_colors, colors, k) if piece.via >= 0 else range(k + 1)
        for f, c in zip(piece.eids, piece_colors):
            colors[f] = perm[c]
    return SolveResult(status, total, EdgeColoring(k, tuple(colors)), nodes)


def has_normal_k(graph: CubicGraph, k: int) -> Optional[EdgeColoring]:
    """A normal k-edge-coloring witness, or None if none exists (exhaustive)."""
    # with budget 0 and no node limit, a witness exists exactly when the minimum is 0
    return min_abnormal(graph, SearchConfig(k=k, abnormal_budget=0)).witness


def normal_chromatic_index(graph: CubicGraph) -> Optional[int]:
    """Least k admitting a normal k-edge-coloring, or None if no k does.

    A coloring uses at most |E| colors, so the scan over k = 3..|E| decides
    existence exactly.  Simple cubic graphs always have one (coloring every
    edge differently is normal); multigraphs with parallel edges may not.
    """
    witness = _normal_index_witness(graph)
    return None if witness is None else witness.k


def _normal_index_witness(graph: CubicGraph) -> Optional[EdgeColoring]:
    """The witness of the solve that settled normal_chromatic_index: its k
    is the index.  None when no k admits a normal coloring."""
    for k in range(3, max(graph.m, 3) + 1):
        witness = has_normal_k(graph, k)
        if witness is not None:
            return witness
    return None

