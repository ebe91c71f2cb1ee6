"""Command-line interface tying the modules into reproducible experiments.

Exit codes: 0 success, 1 usage error, 2 verification failure (a claimed
invariant did not hold on this input), 3 incomplete (a resource limit
stopped a solve, so some answers are not proofs).  Reports embed the
SHA-256 of every input file, and identical invocations produce identical
bytes; the scan timing column only carries real values under --timing,
since wall time is the one thing that cannot be reproduced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
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
from .errors import GraphError, ImproperColoringError, VerificationError
from .formats import detect_format, parse_graph, write_graph
from .generate import enumerate_cubic
from .graphs import CubicGraph, catalog, connectivity_report
from .petersen import build_p_coloring, canonical_petersen, pullback, verify_h_coloring, write_p_coloring
from .solver import (
    SearchConfig,
    _normal_index_with_witness,
    has_normal_k,
    min_abnormal,
    scan_no_single_abnormal,
)

_USAGE_EXIT = 1
_VERIFY_EXIT = 2
_INCOMPLETE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_graph(path: str, fmt: str = "auto") -> CubicGraph:
    text = Path(path).read_text()
    return parse_graph(text, detect_format(text) if fmt == "auto" else fmt)


def _load_graph(args) -> tuple[CubicGraph, dict[str, str]]:
    return _read_graph(args.graph, args.format), {"graph": _sha256(args.graph)}


def _load_coloring(args, graph: CubicGraph, hashes: dict[str, str]) -> EdgeColoring:
    text = Path(args.coloring).read_text()
    hashes["coloring"] = _sha256(args.coloring)
    return read_coloring(text, graph.m)


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _add_graph_flags(p: _Parser) -> None:
    p.add_argument("--graph", required=True, help="path to the input graph")
    p.add_argument("--format", default="auto", choices=("auto", "edge-list", "sparse6"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    graph, hashes = _load_graph(args)
    coloring = _load_coloring(args, graph, hashes)
    classes = classify_all(graph, coloring)
    counts = {"poor": 0, "rich": 0, "abnormal": 0}
    for cls in classes:
        counts[cls.value] += 1
    abnormal = sorted(abnormal_set(graph, coloring))
    if args.out == "json":
        _emit_json(
            {
                "k": coloring.k,
                "classes": [cls.value for cls in classes],
                "counts": counts,
                "abnormal_edges": abnormal,
                "normal": not abnormal,
                "checks": {"proper": True},
                "inputs": hashes,
            }
        )
    else:
        print(f"# inputs {json.dumps(hashes, sort_keys=True)}")
        print("edge_id\tclass")
        for eid, cls in enumerate(classes):
            print(f"{eid}\t{cls.value}")
        print(
            f"# counts poor={counts['poor']} rich={counts['rich']}"
            f" abnormal={counts['abnormal']} normal={str(not abnormal).lower()}"
        )
    return 0


def _cmd_solve(args) -> int:
    graph, hashes = _load_graph(args)
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
    if args.out == "json":
        _emit_json(obj)
    else:
        print(f"# inputs {json.dumps(hashes, sort_keys=True)}")
        print("status\tmin_abnormal\tnodes")
        print(f"{result.status.value}\t{result.best_count}\t{result.nodes_explored}")
    if not all(checks.values()):
        print("verification failure: witness checks failed", file=sys.stderr)
        return _VERIFY_EXIT
    return 0


def _cmd_chi_n(args) -> int:
    graph, hashes = _load_graph(args)
    index, witness = _normal_index_with_witness(graph)
    # no index is a certified answer: k = m admits every coloring there is
    checks = {} if witness is None else {"witness_normal": is_normal(graph, witness)}
    if args.out == "json":
        _emit_json(
            {
                "normal_chromatic_index": index,
                "witness": list(witness.colors) if witness else None,
                "checks": checks,
                "inputs": hashes,
            }
        )
    else:
        print(f"# inputs {json.dumps(hashes, sort_keys=True)}")
        print("normal_chromatic_index")
        print("none" if index is None else index)
    if not all(checks.values()):
        print("verification failure: no normal witness at the reported index", file=sys.stderr)
        return _VERIFY_EXIT
    return 0


def _cmd_scan(args) -> int:
    import os

    graphs = enumerate_cubic(args.n, distinct=True)
    cfg = SearchConfig(k=args.k, node_limit=args.node_limit)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    report = scan_no_single_abnormal(graphs, cfg, jobs=jobs)
    unresolved = report.unresolved_ids()
    if args.out == "json":
        obj = report.to_json_obj(timing=args.timing)
        obj["n"] = args.n
        obj["graphs"] = len(report.rows)
        _emit_json(obj)
    else:
        body = report.to_tsv(timing=args.timing)
        print(body, end="")
        dist = ",".join(f"{k}:{v}" for k, v in report.distribution().items())
        print(
            f"# graphs={len(report.rows)} minima={{{dist}}}"
            f" single_abnormal={len(report.single_abnormal_ids())}"
            + (f" unresolved={len(unresolved)}" if unresolved else "")
        )
    if report.single_abnormal_ids():
        print(
            "verification failure: a graph with exactly one abnormal edge appeared",
            file=sys.stderr,
        )
        return _VERIFY_EXIT
    if unresolved:
        print(f"incomplete: the node limit stopped {len(unresolved)} solve(s)", file=sys.stderr)
        return _INCOMPLETE_EXIT
    return 0


def _cmd_jaeger(args) -> int:
    graph, hashes = _load_graph(args)
    if args.coloring:
        coloring = _load_coloring(args, graph, hashes)
    else:
        coloring = has_normal_k(graph, args.k)
        if coloring is None:
            print(f"no normal {args.k}-edge-coloring exists for this graph", file=sys.stderr)
            return _VERIFY_EXIT
    phi = build_p_coloring(graph, coloring)
    model = canonical_petersen()
    verified = verify_h_coloring(graph, model.graph, phi)
    roundtrip = verified and pullback(graph, phi) == coloring
    if args.out == "json":
        _emit_json(
            {
                "phi": list(phi.phi),
                "checks": {"h_coloring": verified, "roundtrip": roundtrip},
                "inputs": hashes,
            }
        )
    else:
        print(f"# inputs {json.dumps(hashes, sort_keys=True)}")
        print(write_p_coloring(phi), end="")
        print(f"# h_coloring={str(verified).lower()} roundtrip={str(roundtrip).lower()}")
    if not (verified and roundtrip):
        print("verification failure: Jaeger round-trip did not close", file=sys.stderr)
        return _VERIFY_EXIT
    return 0


def _cmd_construct(args) -> int:
    graph, hashes = _load_graph(args)
    variant = args.variant
    if variant == "disjoint":
        out = constructions.disjoint_copies(graph, args.t)
    elif variant == "cyclic1":
        out = constructions.cyclic_join_one_edge(
            graph, args.edge if args.edge is not None else 0, args.t
        )
    elif variant == "cyclic2":
        if args.edge is not None and args.edge2 is not None:
            e1, e2 = args.edge, args.edge2
        else:
            e1, e2 = constructions.default_three_path(graph)
        out = constructions.cyclic_join_two_edges(graph, e1, e2, args.t)
    elif variant == "vertex_replacement":
        host = _read_graph(args.graph2) if args.graph2 else constructions.replacement_host(args.t)
        out = constructions.vertex_replacement(host, graph, args.vertex)
    elif variant == "two_cut":
        other = _read_graph(args.graph2) if args.graph2 else catalog("k4")
        e1 = args.edge if args.edge is not None else 0
        e2 = args.edge2 if args.edge2 is not None else 0
        out = constructions.two_cut_connection(graph, e1, other, e2)
    elif variant == "k4_gadget":
        if not args.coloring:
            print("error: k4_gadget needs --coloring to locate an abnormal edge", file=sys.stderr)
            return _USAGE_EXIT
        coloring = _load_coloring(args, graph, hashes)
        bad = sorted(abnormal_set(graph, coloring))
        if not bad:
            print("error: the coloring has no abnormal edge to extend", file=sys.stderr)
            return _USAGE_EXIT
        eid = args.edge if args.edge is not None else bad[0]
        out, _ = constructions.k4_gadget_extend(graph, coloring, eid)
    else:
        print(f"error: unknown variant {variant!r}", file=sys.stderr)
        return _USAGE_EXIT
    fmt = args.format if args.format != "auto" else "edge-list"
    print(write_graph(out, fmt), end="")
    return 0


def _cmd_demo(args) -> int:
    graph, hashes = _load_graph(args)
    coloring = None
    if args.coloring:
        # the coloring file applies to the composite graph
        composite = constructions.composite_graph(graph, args.variant, args.t)
        hashes["coloring"] = _sha256(args.coloring)
        coloring = read_coloring(Path(args.coloring).read_text(), composite.m)
    report = constructions.pigeonhole_demo(graph, args.variant, args.t, coloring)
    obj = report.to_json_obj()
    obj["inputs"] = hashes
    _emit_json(obj)
    if not report.passed:
        print("verification failure: demo bound not met", file=sys.stderr)
        return _VERIFY_EXIT
    return 0


def _cmd_question31(args) -> int:
    rows = []
    violations = []
    for gid, graph in enumerate(enumerate_cubic(args.n, distinct=True)):
        if not connectivity_report(graph).bridgeless:
            continue
        best = min_abnormal(graph).best_count
        if best > 2:
            continue
        rows.append({"graph_id": gid, "min_abnormal": best, "has_normal_5": best == 0})
        if best != 0:
            violations.append(gid)
    obj = {"n": args.n, "rows": rows, "violations": violations}
    if args.out == "json":
        _emit_json(obj)
    else:
        print("graph_id\tmin_abnormal\thas_normal_5")
        for r in rows:
            print(f"{r['graph_id']}\t{r['min_abnormal']}\t{int(r['has_normal_5'])}")
        print(f"# violations={len(violations)}")
    if violations:
        print(
            "note: bridgeless graph(s) with min <= 2 but no normal 5-edge-coloring: "
            f"{violations}",
            file=sys.stderr,
        )
    return 0


_PLOT_STYLE = {
    "poor": ' stroke="#999999" stroke-width="1.5"',
    "rich": ' stroke="#2266aa" stroke-width="2.5"',
    "abnormal": ' stroke="#cc2222" stroke-width="3.5" stroke-dasharray="6,3"',
    None: ' stroke="#333333" stroke-width="2"',
}


def _cmd_plot(args) -> int:
    import math

    graph, hashes = _load_graph(args)
    classes = None
    if args.coloring:
        coloring = _load_coloring(args, graph, hashes)
        classes = classify_all(graph, coloring)
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
    return 0


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="normalcol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="per-edge poor/rich/abnormal classes")
    _add_graph_flags(p)
    p.add_argument("--coloring", required=True)
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="exact minimum number of abnormal edges")
    _add_graph_flags(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--out", default="json", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("chi-n", help="normal chromatic index")
    _add_graph_flags(p)
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_chi_n)

    p = sub.add_parser("scan", help="minima over all cubic graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help="workers (default: all cores)")
    p.add_argument("--timing", action="store_true", help="emit real wall times (non-reproducible)")
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("jaeger", help="build, verify, and round-trip a Petersen-coloring")
    _add_graph_flags(p)
    p.add_argument("--coloring", default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", default="json", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_jaeger)

    p = sub.add_parser("construct", help="build a composite graph")
    _add_graph_flags(p)
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
    _add_graph_flags(p)
    p.add_argument("--variant", required=True, choices=constructions.DEMO_VARIANTS)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--coloring", default=None)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("question31", help="bridgeless graphs with min <= 2: does normal exist?")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="tsv", choices=("tsv", "json"))
    p.set_defaults(func=_cmd_question31)

    p = sub.add_parser("plot", help="static SVG with poor/rich/abnormal styling")
    _add_graph_flags(p)
    p.add_argument("--coloring", default=None)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE_EXIT
    try:
        return args.func(args)
    except (GraphError, ImproperColoringError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return _VERIFY_EXIT


if __name__ == "__main__":
    sys.exit(main())
