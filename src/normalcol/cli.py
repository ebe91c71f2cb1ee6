"""Command-line interface tying the modules into reproducible experiments.

Exit codes: 0 success, 1 usage error, 2 verification failure (a claimed
invariant did not hold on this input), 3 incomplete (a resource limit
stopped a solve, so some answers are not proofs).  Subcommand handlers
print their reports and raise on failure: ``ValueError``,
``VerificationError`` or ``_Incomplete``, the last two after the report.
``main`` alone maps each to one stderr line and its exit code.  Reports
embed the SHA-256 of every input file, and identical invocations produce
identical bytes; the scan timing column only carries real values under
--timing, since wall time is the one thing that cannot be reproduced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

from . import constructions
from .coloring import (
    EdgeColoring,
    abnormal_set,
    classify_all,
    is_normal,
    is_proper,
    read_coloring,
)
from .errors import VerificationError
from .formats import detect_format, parse_graph, write_graph
from .generate import enumerate_cubic
from .graphs import CubicGraph, catalog, connectivity_report
from .petersen import build_p_coloring, canonical_petersen, pullback, verify_h_coloring, write_p_coloring
from .solver import (
    SearchConfig,
    SolveStatus,
    _normal_index_witness,
    has_normal_k,
    min_abnormal,
)


class _Incomplete(Exception):
    """A resource limit stopped a solve after its report was printed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> tuple[str, str]:
    """A file's text, decoded as UTF-8, and the SHA-256 of the bytes read."""
    data = Path(path).read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _read_graph(path: str) -> tuple[CubicGraph, str]:
    text, digest = _read(path)
    return parse_graph(text, detect_format(text)), digest


def _inputs(args) -> tuple[CubicGraph, EdgeColoring | None, dict[str, str]]:
    """The --graph, the --coloring when the subcommand has one and it is
    given, and the SHA-256 of each file read, graph first."""
    graph, digest = _read_graph(args.graph)
    hashes = {"graph": digest}
    coloring = None
    if getattr(args, "coloring", None):
        text, hashes["coloring"] = _read(args.coloring)
        coloring = read_coloring(text)
    return graph, coloring, hashes


def _report(fmt: str, obj: dict, lines: list[str]) -> None:
    """Print obj as compact sorted JSON, or the TSV lines, under a
    ``# inputs`` line when obj carries input hashes."""
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return
    if "inputs" in obj:
        print(f"# inputs {json.dumps(obj['inputs'], sort_keys=True)}")
    print("\n".join(lines))


def _add_graph_flag(p: _Parser) -> None:
    p.add_argument("--graph", required=True, help="path to the input graph")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> None:
    graph, coloring, hashes = _inputs(args)  # --coloring is required here
    classes = [cls.value for cls in classify_all(graph, coloring)]
    counts = {name: classes.count(name) for name in ("poor", "rich", "abnormal")}
    abnormal = [eid for eid, cls in enumerate(classes) if cls == "abnormal"]
    obj = {
        "k": coloring.k,
        "classes": classes,
        "counts": counts,
        "abnormal_edges": abnormal,
        "normal": not abnormal,
        "checks": {"proper": True},
        "inputs": hashes,
    }
    _report(args.out, obj, [
        "edge_id\tclass",
        *(f"{eid}\t{cls}" for eid, cls in enumerate(classes)),
        f"# counts poor={counts['poor']} rich={counts['rich']}"
        f" abnormal={counts['abnormal']} normal={str(not abnormal).lower()}",
    ])


def _cmd_solve(args) -> None:
    graph, _, hashes = _inputs(args)
    cfg = SearchConfig(k=args.k, abnormal_budget=args.budget, node_limit=args.node_limit)
    result = min_abnormal(graph, cfg)
    checks = {}
    if result.witness is not None:
        checks["witness_proper"] = is_proper(graph, result.witness, args.k)
        checks["witness_count_matches"] = (
            len(abnormal_set(graph, result.witness)) == result.best_count
        )
    obj = {
        "status": result.status.value,
        "min_abnormal": result.best_count,
        "nodes": result.nodes_explored,
        "witness": list(result.witness.colors) if result.witness else None,
        "checks": checks,
        "inputs": hashes,
    }
    _report(args.out, obj, [
        "status\tmin_abnormal\tnodes",
        f"{result.status.value}\t{result.best_count}\t{result.nodes_explored}",
    ])
    if not all(checks.values()):
        raise VerificationError("witness checks failed")
    if result.status is SolveStatus.LIMIT:
        raise _Incomplete("the node limit stopped the solve")


def _cmd_chi_n(args) -> None:
    graph, _, hashes = _inputs(args)
    witness = _normal_index_witness(graph)
    index = None if witness is None else witness.k
    # no index is a certified answer: k = m admits every coloring there is
    checks = {} if witness is None else {"witness_normal": is_normal(graph, witness)}
    obj = {
        "normal_chromatic_index": index,
        "witness": list(witness.colors) if witness else None,
        "checks": checks,
        "inputs": hashes,
    }
    _report(args.out, obj, ["normal_chromatic_index", "none" if index is None else str(index)])
    if not all(checks.values()):
        raise VerificationError("no normal witness at the reported index")


def _cmd_scan(args) -> None:
    # no proper 5-edge-coloring has exactly one abnormal edge: an OPTIMAL 1 is a solver bug
    cfg = SearchConfig(k=args.k, node_limit=args.node_limit)
    rows = []
    for graph_id, graph in enumerate(enumerate_cubic(args.n)):
        t0 = time.perf_counter()
        report, result = connectivity_report(graph), min_abnormal(graph, cfg)
        rows.append({
            "graph_id": graph_id,
            "n": graph.n,
            "m": graph.m,
            "bridgeless": report.bridgeless,
            "cyc4": report.cyclically_4_edge_connected,
            "min_abnormal": result.best_count,
            "nodes": result.nodes_explored,
            "millis": int((time.perf_counter() - t0) * 1000) if args.timing else None,
            "status": result.status.value,
            "witness": list(result.witness.colors) if result.witness else None,
        })
    # a row the node limit stopped proves no minimum, so it counts only as unresolved
    limit, optimal = SolveStatus.LIMIT.value, SolveStatus.OPTIMAL.value
    unresolved = [r["graph_id"] for r in rows if r["status"] == limit]
    minima = sorted(Counter(r["min_abnormal"] for r in rows if r["status"] != limit).items())
    single = [r["graph_id"] for r in rows if r["status"] == optimal and r["min_abnormal"] == 1]
    obj = {
        "n": args.n,
        "graphs": len(rows),
        "rows": rows,
        "distribution": {str(k): v for k, v in minima},
        "single_abnormal": single,
    }
    dist = ",".join(f"{k}:{v}" for k, v in minima)
    _report(args.out, obj, [
        "graph_id\tn\tm\tbridgeless\tcyc4\tmin_abnormal\tnodes\tmillis",
        *(
            f"{r['graph_id']}\t{r['n']}\t{r['m']}\t{int(r['bridgeless'])}\t{int(r['cyc4'])}"
            f"\t{'limit' if r['status'] == limit else r['min_abnormal']}"
            f"\t{r['nodes']}\t{'-' if r['millis'] is None else r['millis']}"
            for r in rows
        ),
        f"# graphs={len(rows)} minima={{{dist}}} single_abnormal={len(single)}"
        + (f" unresolved={len(unresolved)}" if unresolved else ""),
    ])
    if single:
        raise VerificationError("a graph with exactly one abnormal edge appeared")
    if unresolved:
        raise _Incomplete(f"the node limit stopped {len(unresolved)} solve(s)")


def _cmd_jaeger(args) -> None:
    graph, coloring, hashes = _inputs(args)
    if coloring is None:
        # a Petersen-coloring needs a normal coloring in at most 5 colors
        k = min(args.k, 5)
        coloring = has_normal_k(graph, k)
        if coloring is None:
            raise VerificationError(f"no normal {k}-edge-coloring exists for this graph")
    phi = build_p_coloring(graph, coloring)
    model = canonical_petersen()
    verified = verify_h_coloring(graph, model.graph, phi)
    # compare colors only: the pullback is a 5-coloring whatever k the input declared
    roundtrip = verified and pullback(graph, phi).colors == coloring.colors
    obj = {
        "phi": list(phi),
        "checks": {"h_coloring": verified, "roundtrip": roundtrip},
        "inputs": hashes,
    }
    _report(args.out, obj, [
        *write_p_coloring(phi).splitlines(),
        f"# h_coloring={str(verified).lower()} roundtrip={str(roundtrip).lower()}",
    ])
    if not (verified and roundtrip):
        raise VerificationError("Jaeger round-trip did not close")


def _cmd_construct(args) -> None:
    graph = _read_graph(args.graph)[0]
    variant = args.variant
    if variant == "disjoint":
        out = constructions.disjoint_copies(graph, args.t)
    elif variant == "cyclic1":
        out = constructions.cyclic_join_one_edge(
            graph, args.edge if args.edge is not None else 0, args.t
        )
    elif variant == "cyclic2":
        if (args.edge is None) != (args.edge2 is None):
            raise ValueError("cyclic2 takes both --edge and --edge2, or neither")
        if args.edge is not None:
            e1, e2 = args.edge, args.edge2
        else:
            e1, e2 = constructions.default_three_path(graph)
        out = constructions.cyclic_join_two_edges(graph, e1, e2, args.t)
    elif variant == "vertex_replacement":
        host = _read_graph(args.graph2)[0] if args.graph2 else constructions.replacement_host(args.t)
        out = constructions.vertex_replacement(host, graph, args.vertex)
    elif variant == "two_cut":
        other = _read_graph(args.graph2)[0] if args.graph2 else catalog("k4")
        e1 = args.edge if args.edge is not None else 0
        e2 = args.edge2 if args.edge2 is not None else 0
        out = constructions.two_cut_connection(graph, e1, other, e2)
    elif variant == "k4_gadget":
        if not args.coloring:
            raise ValueError("k4_gadget needs --coloring to locate an abnormal edge")
        coloring = read_coloring(_read(args.coloring)[0])
        bad = sorted(abnormal_set(graph, coloring))
        if not bad:
            raise ValueError("the coloring has no abnormal edge to extend")
        eid = args.edge if args.edge is not None else bad[0]
        out, _ = constructions.k4_gadget_extend(graph, coloring, eid)
    # two_cut, k4_gadget and a --graph2 host never read t; checking it after
    # the build lets a builder that reads t, such as cyclic2's, speak first
    constructions.check_copies(args.t)
    print(write_graph(out, args.format), end="")


def _cmd_demo(args) -> None:
    # a coloring file applies to the composite graph, which the demo builds
    graph, coloring, hashes = _inputs(args)
    report = constructions.pigeonhole_demo(graph, args.variant, args.t, coloring)
    _report("json", {**report.to_json_obj(), "inputs": hashes}, [])
    if not report.passed:
        raise VerificationError("demo bound not met")


def _cmd_question31(args) -> None:
    # only bridgeless classes are asked about, so only they are solved; at
    # budget 2 a minimum above 2 ends INFEASIBLE without an optimality proof
    cfg = SearchConfig(abnormal_budget=2)
    rows = []
    for graph_id, graph in enumerate(enumerate_cubic(args.n)):
        if connectivity_report(graph).bridgeless:
            result = min_abnormal(graph, cfg)
            if result.status is SolveStatus.OPTIMAL:
                best = result.best_count
                rows.append({"graph_id": graph_id, "min_abnormal": best, "has_normal_5": best == 0})
    violations = [r["graph_id"] for r in rows if not r["has_normal_5"]]
    _report(args.out, {"n": args.n, "rows": rows, "violations": violations}, [
        "graph_id\tmin_abnormal\thas_normal_5",
        *(f"{r['graph_id']}\t{r['min_abnormal']}\t{int(r['has_normal_5'])}" for r in rows),
        f"# violations={len(violations)}",
    ])
    if violations:
        print(
            "note: bridgeless graph(s) with min <= 2 but no normal 5-edge-coloring: "
            f"{violations}",
            file=sys.stderr,
        )


_PLOT_STYLE = {
    "poor": ' stroke="#999999" stroke-width="1.5"',
    "rich": ' stroke="#2266aa" stroke-width="2.5"',
    "abnormal": ' stroke="#cc2222" stroke-width="3.5" stroke-dasharray="6,3"',
    None: ' stroke="#333333" stroke-width="2"',
}


def _cmd_plot(args) -> None:
    import math

    graph, coloring, hashes = _inputs(args)
    classes = None if coloring is None else classify_all(graph, coloring)
    size = 420.0
    cx = cy = size / 2
    radius = size / 2 - 40
    pos = []
    for v in range(graph.n):
        angle = 2 * math.pi * v / graph.n - math.pi / 2
        pos.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}"'
        f' viewBox="0 0 {size:.0f} {size:.0f}">',
        f"<!-- inputs {json.dumps(hashes, sort_keys=True)} -->",
    ]
    seen: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(graph.edges):
        dup = seen.get((u, v), 0)
        seen[(u, v)] = dup + 1
        style = _PLOT_STYLE[classes[eid].value if classes else None]
        (x1, y1), (x2, y2) = pos[u], pos[v]
        if dup == 0:
            lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"{style}/>')
        else:
            # bow parallel edges out so they stay visible
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy) or 1.0
            off = 14.0 * dup
            qx, qy = mx - dy / norm * off, my + dx / norm * off
            lines.append(
                f'<path d="M {x1:.2f} {y1:.2f} Q {qx:.2f} {qy:.2f} {x2:.2f} {y2:.2f}"'
                f' fill="none"{style}/>'
            )
    for v, (x, y) in enumerate(pos):
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="9" fill="#ffffff" stroke="#000000"/>')
        lines.append(
            f'<text x="{x:.2f}" y="{y + 3.5:.2f}" font-size="9" text-anchor="middle">{v}</text>'
        )
    if classes:
        for i, name in enumerate(("poor", "rich", "abnormal")):
            y = 16 + 14 * i
            lines.append(f'<line x1="8" y1="{y}" x2="36" y2="{y}"{_PLOT_STYLE[name]}/>')
            lines.append(f'<text x="42" y="{y + 3.5:.2f}" font-size="10">{name}</text>')
    lines.append("</svg>")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="normalcol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="per-edge poor/rich/abnormal classes")
    _add_graph_flag(p)
    p.add_argument("--coloring", required=True)
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="exact minimum number of abnormal edges")
    _add_graph_flag(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--out", default="json", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("chi-n", help="normal chromatic index")
    _add_graph_flag(p)
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_chi_n)

    p = sub.add_parser("scan", help="minima over all cubic graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--timing", action="store_true", help="emit real wall times (non-reproducible)")
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("jaeger", help="build, verify, and round-trip a Petersen-coloring")
    _add_graph_flag(p)
    p.add_argument("--coloring", default=None)
    p.add_argument("--k", type=int, default=5,
                   help="colors of the solver's normal coloring; k above 5 is solved at 5")
    p.add_argument("--out", default="json", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_jaeger)

    p = sub.add_parser("construct", help="build a composite graph")
    _add_graph_flag(p)
    p.add_argument("--format", default="edge-list", choices=("edge-list", "sparse6"),
                   help="the composite's format; input formats are detected")
    p.add_argument(
        "--variant",
        required=True,
        choices=("disjoint", "cyclic1", "cyclic2", "vertex_replacement", "two_cut", "k4_gadget"),
    )
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--edge", type=int, default=None)
    p.add_argument("--edge2", type=int, default=None)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--graph2", default=None)
    p.add_argument("--coloring", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("demo", help="pigeonhole demonstration with extension bounds")
    _add_graph_flag(p)
    p.add_argument("--variant", required=True, choices=constructions.DEMO_VARIANTS)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--coloring", default=None)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("question31", help="bridgeless graphs with min <= 2: does normal exist?")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_question31)

    p = sub.add_parser("plot", help="static SVG with poor/rich/abnormal styling")
    _add_graph_flag(p)
    p.add_argument("--coloring", default=None)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        args.func(args)
    except (OSError, ValueError) as exc:  # GraphError and ImproperColoringError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except _Incomplete as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
