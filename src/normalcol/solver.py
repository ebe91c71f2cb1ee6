"""Exact minimization of abnormal edges over proper k-edge-colorings.

`min_abnormal` splits G at its bridges and solves each piece on its own.
The pieces are the components of G minus its bridges (the edges in no
cycle, read off `graphs._cut_sets`); in a piece, each bridge at one of its
vertices becomes a pendant edge to a new degree-1 vertex.  The minimum of G
is the sum of the piece minima, for every k >= 3:

* a coloring of G restricts to a coloring of every piece, in which every
  non-bridge edge has the same two palettes, so it is abnormal in G iff it
  is abnormal in its piece (a pendant edge is never classified).  A bridge
  may be abnormal in G, so G has at least the sum of the piece counts;
* conversely, walk the tree of pieces top-down from a root piece.  A child
  piece meets its parent at one bridge xy, x in the parent; permute the
  child's colors so that the bridge color and the other two colors at y
  become those at x (any bijection of the k colors will do).  The palettes
  at x and y are then equal, so the bridge is poor, and the glued coloring
  has exactly the sum of the piece counts as abnormal edges.

Each piece runs the same depth-first branch and bound over edge colors, a
recursive `search(committed, max_used)` over plain per-edge and per-vertex
lists (color, palette bitmask, number of colored edges):

* the three edges at the piece's lowest-id vertex of G are pre-colored 1,
  2, 3, and a color may only be introduced once all smaller colors appear
  somewhere (color classes are interchangeable, so both reductions
  preserve the minimum);
* the branch edge is the uncolored edge whose endpoint stars forbid the most
  colors, ties broken by lowest edge id;
* an edge is classified once both endpoint stars are full; a pendant
  vertex has one edge, so its star never fills.  Coloring uv can fill the
  star of u, of v, or both, and a star it fills has just become full.  So
  the edges at u whose other star is full are counted first, then those at
  v except the ones going back to u, which u already counted; each counts
  as abnormal when the two palettes together hold 4 colors;
* undoing a color is one XOR per palette, since the color was absent from
  both endpoint stars;
* the incumbent bound starts at min(|E|, budget) + 1, so one test
  `committed >= best` cuts both the branches that cannot beat the incumbent
  and those over the configured budget.

A connected bridgeless graph is one piece with its own vertex and edge
order, so its search is the plain search of the whole graph.  The budget
and the node limit bound sums over the pieces: each piece gets what the
pieces before it left over.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .coloring import EdgeColoring
from .graphs import CubicGraph, _cut_sets, connectivity_report

_POP = tuple(bin(i).count("1") for i in range(1 << 7))  # palettes within colors 1..7


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
    """A component of G minus its bridges, relabeled: its vertices of G in
    id order, then one pendant vertex per bridge at them.  Local edge ids
    follow G's order and `eids` maps them to G's.  `via` is the bridge to
    the parent piece and `root` its end in this piece; a component's first
    piece has via -1."""

    edges: list[tuple[int, int]]
    incidence: list[list[int]]
    eids: list[int]
    via: int
    root: int


def _pieces(graph: CubicGraph) -> list[_Piece]:
    """The pieces of G, each after its parent in the tree of pieces."""
    bridges = {eid for eid, cycles in enumerate(_cut_sets(graph)[1]) if not cycles}
    edges, inc = graph.edges, graph.incidence
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
                for eid in inc[v]:
                    w = sum(edges[eid]) - v
                    if not seen[w]:
                        seen[w] = True
                        if eid in bridges:
                            queue.append((w, eid))
                        else:
                            members.append(w)
            members.sort()
            local = {v: i for i, v in enumerate(members)}
            eids = sorted({eid for v in members for eid in inc[v]})
            piece_edges = []
            for eid in eids:
                # a bridge's far end gets the next pendant number
                a, b = (local.setdefault(w, len(local)) for w in edges[eid])
                piece_edges.append((a, b) if a < b else (b, a))
            incidence: list[list[int]] = [[] for _ in local]
            for f, (a, b) in enumerate(piece_edges):
                incidence[a].append(f)
                incidence[b].append(f)
            pieces.append(_Piece(piece_edges, incidence, eids, via, root))
    return pieces


def _search(
    endpoints: list[tuple[int, int]],
    incidence: list[list[int]],
    k: int,
    cap: Optional[int],
    limit: Optional[int],
) -> tuple[SolveStatus, int, Optional[tuple[int, ...]], int]:
    """Branch and bound on one bridge-free piece whose vertex 0 has degree 3:
    (status, best count or -1, best coloring or None, nodes explored), for
    colorings with at most `cap` abnormal edges."""
    m, pop = len(endpoints), _POP if k <= 7 else _BitCount()
    # other endpoint of each incident edge, in incidence order
    nbrs = [tuple(sum(endpoints[f]) - w for f in inc) for w, inc in enumerate(incidence)]
    color = [0] * m
    pal = [0] * len(incidence)   # palette bitmask per vertex
    ncol = [0] * len(incidence)  # colored incident edges per vertex
    # the budget is folded into the incumbent bound
    best = m + 1 if cap is None else min(m, cap) + 1
    best_colors: Optional[tuple[int, ...]] = None
    nodes = 0

    def search(committed: int, max_used: int) -> None:
        nonlocal best, best_colors, nodes
        if committed >= best:
            return
        eid, score = -1, -1
        for f in range(m):
            if not color[f]:
                a, b = endpoints[f]
                s = pop[pal[a] | pal[b]]
                if s > score:
                    eid, score = f, s
        if eid < 0:
            best, best_colors = committed, tuple(color)
            return
        u, v = endpoints[eid]
        forbidden = pal[u] | pal[v]
        for c in range(1, min(k, max_used + 1) + 1):
            bit = 1 << (c - 1)
            if forbidden & bit:
                continue
            if limit is not None and nodes == limit:
                raise _NodeLimit
            nodes += 1
            color[eid] = c
            pal[u] |= bit
            pal[v] |= bit
            ncol[u] += 1
            ncol[v] += 1
            delta = 0
            if ncol[u] == 3:
                for x in nbrs[u]:
                    if ncol[x] == 3 and pop[pal[u] | pal[x]] == 4:
                        delta += 1
            if ncol[v] == 3:
                for x in nbrs[v]:
                    if x != u and ncol[x] == 3 and pop[pal[v] | pal[x]] == 4:
                        delta += 1
            search(committed + delta, max(max_used, c))
            # bit is not in forbidden, so XOR restores both palettes
            pal[u] ^= bit
            pal[v] ^= bit
            ncol[u] -= 1
            ncol[v] -= 1
            color[eid] = 0

    # pre-color the star of vertex 0 (proper colorings always admit a color
    # permutation putting 1, 2, 3 there in edge id order); no edge is
    # abnormal yet, since a full star other than 0's needs a triple edge to
    # 0, whose palettes coincide
    for c, eid in enumerate(incidence[0], start=1):
        color[eid] = c
        for w in endpoints[eid]:
            pal[w] |= 1 << (c - 1)
            ncol[w] += 1

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
    if best_colors is None:
        return status, -1, None, nodes
    return status, best, best_colors, nodes


def _gluing(
    graph: CubicGraph, piece: _Piece, piece_colors: tuple[int, ...], colors: list[int], k: int
) -> list[int]:
    """A permutation of 1..k, indexed by color, that takes the bridge color
    and the other two colors at the piece's end of its parent bridge to
    those at the parent's end, which `colors` holds already.  Both ends
    then see the same palette, so the bridge is poor."""
    bridge_first = lambda v: sorted(graph.incidence[v], key=lambda e: e != piece.via)
    ours = [piece_colors[piece.eids.index(e)] for e in bridge_first(piece.root)]
    theirs = [colors[e] for e in bridge_first(sum(graph.edges[piece.via]) - piece.root)]
    perm = dict(zip(ours, theirs))
    free = (c for c in range(1, k + 1) if c not in theirs)
    return [0] + [perm[c] if c in perm else next(free) for c in range(1, k + 1)]


def min_abnormal(graph: CubicGraph, cfg: SearchConfig | None = None) -> SolveResult:
    """Exact minimum of |N_G(c)| over proper k-edge-colorings of a cubic graph.

    G is split at its bridges and each bridge-free piece is searched on its
    own (see the module docstring).  The minimum is the sum of the piece
    minima; the witness glues the piece witnesses top-down over the tree of
    pieces, each permuted so that the bridge to its parent is poor.

    Returns status OPTIMAL with a witness attaining the minimum, INFEASIBLE
    when no proper coloring satisfies the constraints (possible for k in
    {3, 4}; never for k >= 5 without a budget), or LIMIT when the node
    limit ran out before a proof.  The budget and the
    node limit bound sums over the pieces: each piece is searched with what
    the pieces before it left.  An infeasible piece makes G infeasible, and
    a LIMIT in any piece makes the result LIMIT; it carries a witness of G,
    with best_count abnormal edges, only when the stopped piece was the last
    and had found a coloring.  A piece stopped after a normal coloring was
    found is still OPTIMAL, and nodes_explored never exceeds the limit.
    """
    if cfg is None:
        cfg = SearchConfig()
    k = cfg.k
    colors = [0] * graph.m
    total = nodes = 0
    status = SolveStatus.OPTIMAL
    pieces = _pieces(graph)
    for i, piece in enumerate(pieces):
        cap = None if cfg.abnormal_budget is None else cfg.abnormal_budget - total
        limit = None if cfg.node_limit is None else cfg.node_limit - nodes
        status, best, piece_colors, used = _search(piece.edges, piece.incidence, k, cap, limit)
        nodes += used
        if piece_colors is None or (status is SolveStatus.LIMIT and i < len(pieces) - 1):
            return SolveResult(status, -1, None, nodes)
        total += best
        perm = _gluing(graph, piece, piece_colors, colors, k) if piece.via >= 0 else range(k + 1)
        for f, c in enumerate(piece_colors):
            colors[piece.eids[f]] = perm[c]
    return SolveResult(status, total, EdgeColoring(k, tuple(colors)), nodes)


def has_normal_k(graph: CubicGraph, k: int) -> Optional[EdgeColoring]:
    """A normal k-edge-coloring witness, or None if none exists (exhaustive)."""
    result = min_abnormal(graph, SearchConfig(k=k, abnormal_budget=0))
    if result.best_count == 0:
        return result.witness
    return None


def normal_chromatic_index(graph: CubicGraph) -> Optional[int]:
    """Least k admitting a normal k-edge-coloring, or None if no k does.

    A coloring uses at most |E| colors, so the scan over k = 3..|E| decides
    existence exactly.  Simple cubic graphs always have one (coloring every
    edge differently is normal); multigraphs with parallel edges may not.
    """
    return _normal_index_with_witness(graph)[0]


def _normal_index_with_witness(
    graph: CubicGraph,
) -> tuple[Optional[int], Optional[EdgeColoring]]:
    """normal_chromatic_index and the witness of the solve that settled it."""
    for k in range(3, graph.m + 1):
        witness = has_normal_k(graph, k)
        if witness is not None:
            return k, witness
    return None, None


# ---------------------------------------------------------------------------
# Batch scans
# ---------------------------------------------------------------------------

@dataclass
class ScanRow:
    graph_id: int
    n: int
    m: int
    bridgeless: bool
    cyc4: bool
    min_abnormal: int
    nodes: int
    millis: int
    status: SolveStatus
    witness: Optional[EdgeColoring] = None


@dataclass
class ScanReport:
    rows: list[ScanRow] = field(default_factory=list)

    def distribution(self) -> dict[int, int]:
        """Count of graphs per proven minimum (-1: no proper coloring).
        Rows stopped by the node limit prove nothing and are left out."""
        dist: dict[int, int] = {}
        for row in self.rows:
            if row.status is not SolveStatus.LIMIT:
                dist[row.min_abnormal] = dist.get(row.min_abnormal, 0) + 1
        return dict(sorted(dist.items()))

    def unresolved_ids(self) -> list[int]:
        """Graphs whose solve the node limit stopped before a proof."""
        return [r.graph_id for r in self.rows if r.status is SolveStatus.LIMIT]

    def single_abnormal_ids(self) -> list[int]:
        """Graphs whose exact minimum is 1; expected empty on every stream."""
        return [
            r.graph_id
            for r in self.rows
            if r.status is SolveStatus.OPTIMAL and r.min_abnormal == 1
        ]

    def to_tsv(self, timing: bool = False) -> str:
        lines = ["graph_id\tn\tm\tbridgeless\tcyc4\tmin_abnormal\tnodes\tmillis"]
        for r in sorted(self.rows, key=lambda r: r.graph_id):
            millis = str(r.millis) if timing else "-"
            minimum = "limit" if r.status is SolveStatus.LIMIT else str(r.min_abnormal)
            lines.append(
                f"{r.graph_id}\t{r.n}\t{r.m}\t{int(r.bridgeless)}\t{int(r.cyc4)}"
                f"\t{minimum}\t{r.nodes}\t{millis}"
            )
        return "\n".join(lines) + "\n"

    def to_json_obj(self, timing: bool = False) -> dict:
        rows = []
        for r in sorted(self.rows, key=lambda r: r.graph_id):
            rows.append(
                {
                    "graph_id": r.graph_id,
                    "n": r.n,
                    "m": r.m,
                    "bridgeless": r.bridgeless,
                    "cyc4": r.cyc4,
                    "min_abnormal": r.min_abnormal,
                    "nodes": r.nodes,
                    "millis": r.millis if timing else None,
                    "status": r.status.value,
                    "witness": list(r.witness.colors) if r.witness else None,
                }
            )
        return {
            "rows": rows,
            "distribution": {str(k): v for k, v in self.distribution().items()},
            "single_abnormal": self.single_abnormal_ids(),
        }


def _scan_one(graph_id: int, graph: CubicGraph, cfg: SearchConfig) -> ScanRow:
    t0 = time.perf_counter()
    report = connectivity_report(graph)
    result = min_abnormal(graph, cfg)
    millis = int((time.perf_counter() - t0) * 1000)
    return ScanRow(
        graph_id=graph_id,
        n=graph.n,
        m=graph.m,
        bridgeless=report.bridgeless,
        cyc4=report.cyclically_4_edge_connected,
        min_abnormal=result.best_count,
        nodes=result.nodes_explored,
        millis=millis,
        status=result.status,
        witness=result.witness,
    )


def scan_no_single_abnormal(
    graphs: Iterable[CubicGraph], cfg: SearchConfig | None = None
) -> ScanReport:
    """Solve min_abnormal for each graph in the stream and aggregate minima.

    The graphs are solved one at a time as the stream yields them, and row
    i belongs to the i-th graph.  Any graph with exact minimum 1 is flagged;
    no proper 5-edge-coloring of a cubic graph has exactly one abnormal
    edge, so a flag would mean a solver bug (or a remarkable counterexample).
    """
    if cfg is None:
        cfg = SearchConfig()
    return ScanReport([_scan_one(i, g, cfg) for i, g in enumerate(graphs)])
