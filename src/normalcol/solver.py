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
  tried and goes back at its old index, so the scan walks only that list;
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
  must be in neither palette at x and w, and x's palette plus c and a full
  neighbor's must not hold exactly 4 colors together.  The check looks at
  the two ends of the edge just colored and, at an end whose star that
  edge filled, at its neighbors with 2 colored edges.  Palettes only grow,
  so a full star's palette is final and x's will be its two colors plus
  c.  So in every completion one of the tested edges is abnormal, and
  none of those is counted yet: no leaf below best lies in the subtree.
  The colors above the child's largest are in no palette, so they are
  free or taken all together, and the check offers every color the piece
  may use, 1..min(k, m), whatever the child used.  The search therefore
  meets the same incumbents in the same order, and only node counts move;
* a search for a normal coloring (cap 0, k <= 5, a piece that no bridge
  meets, which is a whole component of G) also checks G's own 3-edge cuts.
  A normal coloring is a Petersen-coloring (F. Jaeger, "On
  five-edge-colorings of cubic graphs and nowhere-zero flow problems", Ars
  Combin. 20-B, 1985): it sends uv of color c to edge_at[(S(u), c)], the
  same model edge from both ends (see `petersen`).  Let class(S, c) be the
  set of the model's fundamental cycles through edge_at[(S, c)]
  (`CubicGraph._cut_space`); model edges form a cut exactly when their
  classes XOR to 0.  A model star is a cut, and an inner edge of a vertex
  set X names one model edge from both ends, so the classes of the boundary
  of X XOR to 0, for every edge cut of the component.  No two classes of a
  3-edge cut's model edges are equal, as that would leave the third a class
  of 0, which no model edge has; so they form a 3-edge cut of the model,
  and the model's only 3-edge cuts are its 10 stars.  So a normal coloring
  sends each 3-edge cut onto the three edges of one model star.
  The check gives each edge h a domain, a 15-bit mask of the model edges it
  can still become: dom[c][pal[a]] & dom[c][pal[b]] for h's ends a and b
  and its color c, 0 while h is uncolored.  M is in dom[c][p] when M's
  color is c, or c is 0 and M's color is not in p, and p fits inside one
  of M's two end palettes.  Why pruning on it is sound:
  - each domain holds h's image in every normal completion.  There h has a
    color c', c itself or, for c = 0, a color in neither palette, since
    the coloring is proper; each end's final palette S holds that end's
    palette p and c', and h goes to edge_at[(S, c')], a model edge of
    color c' that has the end palette S.  A full star's palette is final
    and fits only inside itself, so an edge with a full end has at most
    the one edge edge_at[(S, c)] in its domain: it is known;
  - the images of a cut's three edges, or of a vertex star's, are one
    model star's three edges, so some star must take a distinct edge from
    each domain.  By Hall's condition such a star meets every domain, the
    three cover it, and no two meet it in the same single edge.  Narrowing
    each domain to the union of its intersections with the stars that pass
    keeps every image, and so does narrowing again from narrowed domains;
  - so a domain that empties leaves no normal completion, and the child is
    pruned.  Only subtrees without a normal coloring go, so the probe
    meets the same first normal coloring, the witness cannot move, and
    since the branch order is fixed, node counts can only fall.
  The check runs when the edge just colored fills a star, and reads the
  cuts through that star's three edges, which have just become known.
  When a domain narrows, every other constraint through that edge is read
  again, until no domain narrows or one empties: arc consistency (A. K.
  Mackworth, "Consistency in networks of relations", Artif. Intell. 8,
  1977).  Every narrowing is monotone, so every order of reading reaches
  the same domains, and whether one empties does not depend on the order.
  Two known edges of a cut leave one star, their common end, so the third
  domain must hold its third edge, and three known ones must form a star:
  these are the cases a check of known edges alone would catch.  The
  listed cuts (`CubicGraph._three_cuts`: the cuts of three pairwise
  vertex-disjoint edges) hold no bridge: a bridge's set is empty, so the
  other two would form a 2-cut, whose model edges are equal, and the
  bridge lies in no piece that this search colors.  Nor does a cut span
  two components, whose colorings the lemma does not link; and since an
  edge's set holds only cycles of its own piece, three non-bridge edges
  whose sets XOR to 0 lie in one piece.
  Narrowings are kept down the search on a trail, as finite-domain
  solvers keep theirs (C. Schulte and M. Carlsson, "Finite domain
  constraint programming systems", Handbook of Constraint Programming,
  2006).  over[h] is h's narrowed domain, full at first, and h's domain is
  over[h] & dom[c][pal[a]] & dom[c][pal[b]].  A narrowing made in a
  child's check holds in the child's whole subtree, since every
  completion there is a completion of the child.  Each narrowing pushes
  h and its old over[h] on the trail, and a check first pops the trail
  back to the length it had when the node whose child it checks was
  entered.  That undoes what the node's earlier children and their
  subtrees narrowed, so each check reads its own branch's domains.
  A vertex star is the trivial 3-edge cut: a normal coloring sends the
  star of v onto the star of the model vertex with v's palette, so the
  star test applies to it unchanged.  A star is read far more often than a
  cut, so vertex stars are constraints only where they pay: when G is
  behind a snark.  That is, some listed cut has a side X, no larger than
  the other, whose closure, X with one new vertex on the cut's three edges,
  is a snark: bridgeless, with no 3-edge-coloring.  A side whose closure
  has a 3-edge-coloring in the colors of a model vertex's palette gives
  all its vertices that palette, so it maps onto that vertex's star, and
  permuting the colors sends the cut onto that star in any order.  A
  snark's side has no such coloring, so which stars the cut can take
  depends on how the side is colored, and the search re-colors the side
  to find out; its vertex stars carry the cut's narrowing into it (as in
  the vertex-replacement composite, K_{3,3} with each vertex replaced by a
  copy of P - v, whose copies close off into the Petersen graph).  So the
  check then also reads the stars at the two ends of the edge just
  colored, and, when a star fills, the stars of that vertex's neighbors,
  whose edges it has just made known.  A side has an odd number of
  vertices (its 3|X| edge ends less the cut's 3 pair up), so a side under
  9 vertices has a closure of at most 8, and every bridgeless cubic graph
  that small, parallel edges allowed, has a 3-edge-coloring: the Petersen
  graph, the smallest snark, has 10.  Those sides go untested, and no
  graph under 18 vertices is behind a snark.  A closure is tested by a k = 3 solve, which builds no
  check, and each distinct relabeled closure once.  The gate only decides
  where stars are read: a wrong answer can cost nodes, never soundness.

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
    graph: CubicGraph, color: list[int], pal: list[int], pop, colors: int
) -> Callable[[int], bool]:
    """The forward check over one search's color and palette lists:
    `dead(v)` tells whether v, an end of the edge just colored, leaves some
    vertex x with 2 colored edges whose last edge xw has no color in the
    bitmask `colors` that keeps every edge from x to a full star normal.
    That is v itself, or, when v's star is full, a neighbor of v."""
    star, nbrs = graph._stars, graph.neighbors

    def stuck(x: int) -> bool:
        px = pal[x]
        free = colors & ~px
        for f, y in star[x]:
            q = pal[y]
            if not color[f]:
                free &= ~q
            elif pop[q] == 3:
                # xy is abnormal when the final palettes hold 4 colors
                # together: if the full star holds both of x's colors, c
                # must be its third; else c must be new to it
                free &= q if px | q == q else ~q
        return not free

    def dead(v: int) -> bool:
        size = pop[pal[v]]
        if size == 2:
            return stuck(v)
        if size == 3:
            for x in nbrs[v]:
                if pop[pal[x]] == 2 and stuck(x):
                    return True
        return False

    return dead


@lru_cache(maxsize=1)
def _domains() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The model-edge domains `dom[c][p]` (module docstring), for colors c
    in 0..5 and palettes p within colors 1..5 as bitmasks, and the model's
    10 stars.  Sets of model edges are 15-bit masks."""
    model = canonical_petersen()
    dom = [[0] * 32 for _ in range(6)]
    for (palette, c), e in model.edge_at.items():  # e has color c and this end palette
        end = sum(1 << (x - 1) for x in palette)
        for p in range(32):
            if p | end == end:  # p fits inside it
                dom[c][p] |= 1 << e
                if not p >> (c - 1) & 1:
                    dom[0][p] |= 1 << e
    stars = tuple(sum(1 << e for e in model.graph.incidence[w]) for w in range(10))
    return tuple(map(tuple, dom)), stars


@lru_cache(maxsize=1 << 12)
def _star_test(da: int, db: int, dc: int) -> tuple[int, int, int]:
    """The domains of a 3-edge cut's edges, each narrowed to the union of
    its intersections with the model stars that can take a distinct edge
    from every domain; all three 0 when no star can."""
    na = nb = nc = 0
    for star in _domains()[1]:
        x, y, z = da & star, db & star, dc & star
        # Hall's condition: each meets the star, the three cover it, and
        # no two meet it in the same single edge
        if (
            x and y and z and x | y | z == star
            and not (x == y and not x & x - 1)
            and not (x == z and not x & x - 1)
            and not (y == z and not y & y - 1)
        ):
            na |= x
            nb |= y
            nc |= z
    return na, nb, nc


def _cut_check(
    graph: CubicGraph, color: list[int], pal: list[int]
) -> Optional[tuple[Callable[[int, int, int], bool], list[tuple[int, int]]]]:
    """The 3-edge-cut check over one search's color and palette lists, for
    palettes within colors 1..5, or None when G lists no 3-edge cut:
    (`cut`, `trail`).  `cut(u, v, mark)` first pops `trail` back to length
    `mark`, the one it had when the node whose child it checks was entered,
    then tells whether coloring uv, the edge just colored, left some edge
    an empty domain once the narrowing has spread from the constraints it
    reads.  The constraints are the listed cuts, and every vertex star when
    G is behind a snark (`_behind_snark`); the narrowed domains and the
    trail live as long as the search (module docstring)."""
    if not graph._three_cuts:
        return None
    dom = _domains()[0]
    ends, pop = graph.edges, _POP
    cons = list(graph._three_cuts)  # the constraints' edges
    through = [()] * graph.m  # per edge: the ids of the constraints through it
    at = [()] * graph.n  # per vertex: those through its star's edges, read when it fills
    for i, three in enumerate(cons):
        for f in three:
            through[f] += (i,)
            x, y = ends[f]
            at[x] += (i,)
            at[y] += (i,)
    own: list[tuple[int, ...]] = [()] * graph.n  # per vertex: its star, when a constraint
    if _behind_snark(graph):
        base = len(cons)
        cons += graph.incidence
        own = [(base + x,) for x in range(graph.n)]
        for x, star in enumerate(graph.incidence):
            for f in star:
                through[f] += own[x]
            at[x] += (base + x, *[base + w for w in graph.neighbors[x]])
    # per constraint: its edges, their ends, and per edge the constraints to
    # read again when its domain narrows
    records = [
        (a, b, c, *ends[a], *ends[b], *ends[c], through[a], through[b], through[c])
        for a, b, c in cons
    ]
    over = [(1 << 15) - 1] * graph.m
    trail: list[tuple[int, int]] = []

    def cut(u: int, v: int, mark: int) -> bool:
        while len(trail) > mark:
            f, old = trail.pop()
            over[f] = old
        queue = {
            *(at[u] if pop[pal[u]] == 3 else own[u]),
            *(at[v] if pop[pal[v]] == 3 else own[v]),
        }
        while queue:
            i = queue.pop()
            a, b, c, a1, a2, b1, b2, c1, c2, ra, rb, rc = records[i]
            # each edge's domain: its narrowing, and what its color and ends allow
            row = dom[color[a]]
            da = over[a] & row[pal[a1]] & row[pal[a2]]
            row = dom[color[b]]
            db = over[b] & row[pal[b1]] & row[pal[b2]]
            row = dom[color[c]]
            dc = over[c] & row[pal[c1]] & row[pal[c2]]
            na, nb, nc = _star_test(da, db, dc)
            if not na:
                return True
            if na != da:
                trail.append((a, over[a]))
                over[a] = na
                queue.update(ra)
            if nb != db:
                trail.append((b, over[b]))
                over[b] = nb
                queue.update(rb)
            if nc != dc:
                trail.append((c, over[c]))
                over[c] = nc
                queue.update(rc)
            queue.discard(i)  # a constraint's own narrowing leaves it consistent
        return False

    return cut, trail


_SIDE = 9  # the fewest vertices of a side whose closure can be a snark


def _behind_snark(graph: CubicGraph) -> bool:
    """Whether some listed 3-edge cut of G has a side, no larger than the
    other, whose closure (the side, with one new vertex on the cut's three
    edges) is a snark (`_snark`).  Sides under `_SIDE` vertices are not
    tested: no closure that small is a snark (module docstring)."""
    if graph.n < 2 * _SIDE:
        return False
    stars, ends, inc = graph._stars, graph.edges, graph.incidence
    for three in graph._three_cuts:
        sides = []
        for x in ends[three[0]]:  # one end on each side
            side, seen = [x], {x}
            for v in side:
                for eid, w in stars[v]:
                    if w not in seen and eid not in three:
                        seen.add(w)
                        side.append(w)
            sides.append(side)
        size = min(map(len, sides))
        for side in sides:
            if len(side) == size >= _SIDE:
                # the side's vertices in id order, then the new vertex
                label = {v: i for i, v in enumerate(sorted(side))}
                edges = [ends[eid] for eid in sorted({eid for v in side for eid in inc[v]})]
                closure = tuple((label.get(a, size), label.get(b, size)) for a, b in edges)
                if _snark(size + 1, closure):
                    return True
    return False


@lru_cache(maxsize=1 << 10)
def _snark(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Whether the cubic graph on n vertices with these edges is a snark,
    here any bridgeless cubic graph with no 3-edge-coloring.  A k = 3 solve
    builds no 3-edge-cut check, so this never recurses."""
    graph = CubicGraph(n, edges)
    return 0 not in graph._cut_space[1] and (
        min_abnormal(graph, SearchConfig(k=3)).status is SolveStatus.INFEASIBLE
    )


def _search(
    graph: CubicGraph,
    color: list[int],
    pal: list[int],
    piece: _Piece,
    k: int,
    cap: Optional[int],
    limit: Optional[int],
) -> tuple[SolveStatus, int, Optional[tuple[int, ...]], int]:
    """Branch and bound on one piece of G: (status, best count or -1, best
    coloring of `piece.eids` or None, nodes explored), for colorings with at
    most `cap` abnormal edges.  `color` and `pal` are G's color and palette
    lists, all zero on entry and left so on return.  The search builds both
    of its checks over them: the forward check, and the 3-edge-cut check
    only where it reads it, at cap 0, k <= 5, on a piece no bridge meets."""
    endpoints, nbrs, eids = graph.edges, graph.neighbors, piece.eids
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
    pop = _POP if top <= 7 else _BitCount()
    # the forward check offers every color the piece may use (module docstring)
    dead = _dead_end(graph, color, pal, pop, (1 << top) - 1)
    # the 3-edge-cut check holds only for normal colorings of a whole
    # component, into the 5 colors of the Petersen graph's edges
    check = _cut_check(graph, color, pal) if cap == 0 and k <= 5 and not piece.bridged else None
    cut, trail = check or (None, ())

    def search(committed: int, max_used: int) -> None:
        nonlocal best, best_colors, nodes
        eid, score = -1, -1
        for f in uncolored:
            a, b = endpoints[f]
            s = pop[pal[a] | pal[b]]
            if s > score:
                eid, score = f, s
        if eid < 0:
            best, best_colors = committed, tuple([color[f] for f in eids])
            return
        i = uncolored.index(eid)
        del uncolored[i]
        u, v = endpoints[eid]
        forbidden = pal[u] | pal[v]
        mark = len(trail)  # a child's 3-edge-cut check pops the trail back to it
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
            # the forward check finds or a 3-edge cut with no normal
            # completion, is pruned without a call
            if count < best and not (
                count == best - 1
                and (dead(u) or dead(v) or (cut and cut(u, v, mark)))
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
    color, pal = [0] * graph.m, [0] * graph.n  # every piece's search reuses these
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
            status, best, piece_colors, used = _search(graph, color, pal, piece, k, bound, limit)
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

