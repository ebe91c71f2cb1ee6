"""Exact minimization of abnormal edges over proper k-edge-colorings.

`min_abnormal` is one depth-first branch and bound over edge colors, a
recursive `search(committed, max_used)` over plain per-edge and per-vertex
lists (color, palette bitmask, number of colored edges):

* the three edges at vertex 0 are pre-colored 1, 2, 3, and a color may only
  be introduced once all smaller colors appear somewhere (color classes are
  interchangeable, so both reductions preserve the minimum);
* the branch edge is the uncolored edge whose endpoint stars forbid the most
  colors, ties broken by lowest edge id;
* an edge is classified once both endpoint stars are full.  Coloring uv can
  fill the star of u, of v, or both, and a star it fills has just become
  full.  So the edges at u whose other star is full are counted first, then
  those at v except the ones going back to u, which u already counted; each
  counts as abnormal when the two palettes together hold 4 colors;
* undoing a color is one XOR per palette, since the color was absent from
  both endpoint stars;
* the incumbent bound starts at min(|E|, budget) + 1, so one test
  `committed >= best` cuts both the branches that cannot beat the incumbent
  and those over the configured budget.

`exhaustive_oracle` enumerates every proper coloring in plain edge id order
with no bounding and no symmetry reduction; it exists to validate the branch
and bound on small inputs and shares none of its shortcuts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .coloring import EdgeColoring
from .errors import SizeLimitError
from .graphs import CubicGraph, connectivity_report

_POP = tuple(bin(i).count("1") for i in range(1 << 7))


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    LIMIT = "limit"


@dataclass(frozen=True)
class SearchConfig:
    """Solver knobs: colors, an optional bound on abnormal edges (results
    above it are reported INFEASIBLE), and an optional node limit."""

    k: int = 5
    abnormal_budget: Optional[int] = None
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
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


def min_abnormal(graph: CubicGraph, cfg: SearchConfig | None = None) -> SolveResult:
    """Exact minimum of |N_G(c)| over proper k-edge-colorings of a cubic graph.

    Returns status OPTIMAL with a witness attaining the minimum, INFEASIBLE
    when no proper coloring satisfies the constraints (always the case for
    k < 3; possible for k in {3, 4}; never for k >= 5 without a budget), or
    LIMIT when the node limit ran out before a proof.  A limit that stops
    the search after a normal coloring was found is still OPTIMAL, and
    nodes_explored never exceeds the limit.
    """
    if cfg is None:
        cfg = SearchConfig()
    if cfg.k < 3:
        return SolveResult(SolveStatus.INFEASIBLE, -1, None, 0)

    m, k, pop = graph.m, cfg.k, _POP
    endpoints = graph.edges
    # other endpoint of each incident edge, in incidence order
    nbrs = [tuple(sum(endpoints[f]) - w for f in inc) for w, inc in enumerate(graph.incidence)]
    limit = cfg.node_limit
    color = [0] * m
    pal = [0] * graph.n   # palette bitmask per vertex
    ncol = [0] * graph.n  # colored incident edges per vertex
    # the budget is folded into the incumbent bound
    best = m + 1 if cfg.abnormal_budget is None else min(m, cfg.abnormal_budget) + 1
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
    for c, eid in enumerate(graph.incidence[0], start=1):
        color[eid] = c
        for w in endpoints[eid]:
            pal[w] |= 1 << (c - 1)
            ncol[w] += 1

    try:
        search(0, 3)
        status = SolveStatus.INFEASIBLE if best_colors is None else SolveStatus.OPTIMAL
    except _NodeLimit:
        # no coloring has fewer than 0 abnormal edges
        status = SolveStatus.OPTIMAL if best == 0 else SolveStatus.LIMIT
    if best_colors is None:
        return SolveResult(status, -1, None, nodes)
    return SolveResult(status, best, EdgeColoring(k, best_colors), nodes)


def exhaustive_oracle(graph: CubicGraph, k: int = 5, max_edges: int = 18) -> SolveResult:
    """Brute-force minimum over all proper k-edge-colorings, no pruning.

    Enumerates colorings edge by edge in id order, rejecting only improper
    partial assignments.  Limited to small graphs; used as the independent
    correctness oracle for min_abnormal.
    """
    if graph.m > max_edges:
        raise SizeLimitError(f"{graph.m} edges exceed the oracle limit {max_edges}")
    if k < 3:
        return SolveResult(SolveStatus.INFEASIBLE, -1, None, 0)

    n, m = graph.n, graph.m
    endpoints = graph.edges
    color = [0] * m
    pal = [0] * n
    state = {"nodes": 0, "best": m + 1}
    best_witness: list[Optional[tuple[int, ...]]] = [None]
    pop = _POP

    # with the static edge order, edge f is classifiable right after the last
    # edge incident to its endpoints gets its color
    last_at = [max(graph.incident(v)) for v in range(n)]
    decided_at: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for f, (a, b) in enumerate(endpoints):
        decided_at[max(last_at[a], last_at[b])].append((a, b))

    def run(eid: int, committed: int) -> None:
        if eid == m:
            if committed < state["best"]:
                state["best"] = committed
                best_witness[0] = tuple(color)
            return
        u, v = endpoints[eid]
        save_u, save_v = pal[u], pal[v]
        forbidden = save_u | save_v
        steps = decided_at[eid]
        for c in range(1, k + 1):
            bit = 1 << (c - 1)
            if forbidden & bit:
                continue
            state["nodes"] += 1
            color[eid] = c
            pal[u] = save_u | bit
            pal[v] = save_v | bit
            delta = 0
            for a, b in steps:
                if pop[pal[a] | pal[b]] == 4:
                    delta += 1
            run(eid + 1, committed + delta)
        pal[u] = save_u
        pal[v] = save_v
        color[eid] = 0

    run(0, 0)
    if best_witness[0] is None:
        return SolveResult(SolveStatus.INFEASIBLE, -1, None, state["nodes"])
    return SolveResult(
        SolveStatus.OPTIMAL, state["best"], EdgeColoring(k, best_witness[0]), state["nodes"]
    )


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


def _scan_one(args: tuple[int, CubicGraph, SearchConfig]) -> ScanRow:
    graph_id, graph, cfg = args
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
    graphs: Iterable[CubicGraph],
    cfg: SearchConfig | None = None,
    jobs: int = 1,
) -> ScanReport:
    """Solve min_abnormal for each graph in the stream and aggregate minima.

    Any graph with exact minimum 1 is flagged; no proper 5-edge-coloring of a
    cubic graph has exactly one abnormal edge, so a flag would mean a solver
    bug (or a remarkable counterexample).  With jobs > 1 the per-graph solves
    run in a process pool; the merged report is re-sorted by graph id.
    """
    if cfg is None:
        cfg = SearchConfig()
    tasks = [(i, g, cfg) for i, g in enumerate(graphs)]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_one, tasks))
    else:
        rows = [_scan_one(t) for t in tasks]
    rows.sort(key=lambda r: r.graph_id)
    return ScanReport(rows)
