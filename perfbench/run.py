"""The repository benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload scan-n12 --seed 1 --seconds 24 --trace 0

The run makes whole passes over the workload for about `--seconds` (at
least two passes), all in this one process with the library's serial code
paths.  With `--trace 0` it reports the end-to-end metrics, calibrated to
a nominal host speed (see `probe`), next to their measured values; with
`--trace 1` it alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus the traced-to-untraced wall time ratio.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record (seed, input fingerprint, environment, counters) and, for traced
runs, every span are written under perfbench/out/.  The exit code is 0 only
when every answer passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from probe import NOMINAL_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("scan-n12", "solve-bridged", "composites")
SETUP_SAMPLES = 9

# Per-layer metrics: span-name prefix of the layer, and which of its
# metrics the benchmark reports.  `calls` come from the exact counters,
# `busy_s` and `share` from the traced passes' spans.
LAYERS = {
    "generate": ("busy_s", "share"),
    "graphs.connectivity": ("calls", "busy_s", "share"),
    "solver": ("calls", "busy_s", "share"),
    "constructions.build": ("busy_s",),
    "constructions.demo": ("calls", "busy_s", "share"),
    "petersen.roundtrip": ("calls", "busy_s"),
    "formats.parse": ("calls", "busy_s"),
    "coloring.verify": ("calls", "busy_s"),
}
UNITS = {"calls": "count", "busy_s": "s", "share": "ratio"}


@dataclass
class Pass:
    wall: float  # seconds, yardsticks excluded
    ops: list  # (measured ms, calibrated ms, errors) per operation
    counts: dict
    errors: list
    traced: bool
    speed: float  # mean yardstick over NOMINAL_S: above 1 is slower than nominal

    def calibrated(self) -> float:
        """The pass at nominal host speed: its operations' calibrated
        latencies plus its time outside them scaled by the pass's speed."""
        outside = self.wall - sum(ms for ms, _, _ in self.ops) / 1000.0
        return sum(cal for _, cal, _ in self.ops) / 1000.0 + outside / self.speed


def run_pass(workloads, name, state, spans, ids) -> Pass:
    probe = Probe(spans, ids)
    start = time.perf_counter()
    with probe.span("pass"):
        errors = workloads.run(name, state, probe)
    wall = time.perf_counter() - start - sum(probe.yardsticks[1:])
    speed = statistics.fmean(probe.yardsticks) / NOMINAL_S
    return Pass(wall, probe.ops, dict(probe.counts), errors, spans is not None, speed)


def measure(workloads, name, state, seconds, trace, spans) -> list[Pass]:
    """At least two whole passes, then more while the next one should end
    less than half a pass after `seconds`.  Traced runs alternate an
    untraced and a traced pass, starting untraced."""
    ids = itertools.count()
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + passes[-1].wall / 2 < seconds:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workloads, name, state, spans if traced else None, ids))
    return passes


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(measured, calibrated) seconds of set-ups in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        measured, calibrated = done.stdout.split()[-2:]
        samples.append((float(measured), float(calibrated)))
    return samples


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, calibrated to the nominal host speed
    (see `probe`), and their measured counterparts, which are only printed."""
    cal_ms = [cal for p in passes for _, cal, _ in p.ops]
    ms = [m for p in passes for m, _, _ in p.ops]
    bounded = {
        "wall_s": (statistics.median(p.calibrated() for p in passes), "s"),
        "op_ms.p50": (statistics.median(cal_ms), "ms"),
        "op_ms.p90": (_p90(cal_ms), "ms"),
        "setup_s": (statistics.median(cal for _, cal in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured = {
        "measured.wall_s": (statistics.median(p.wall for p in passes), "s"),
        "measured.op_ms.p50": (statistics.median(ms), "ms"),
        "measured.op_ms.p90": (_p90(ms), "ms"),
        "measured.setup_s": (statistics.median(m for m, _ in setup), "s"),
        "host.slowdown": (statistics.median(p.speed for p in passes), "ratio"),
    }
    return bounded, measured


def _in_layer(span_name: str, layer: str) -> bool:
    return span_name == layer or span_name.startswith(layer + ".")


def per_layer(passes: list[Pass], spans: list[dict]) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    k = len(traced)
    wall = sum(p.wall for p in traced)
    counts = traced[0].counts

    def busy(layer: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if _in_layer(s["name"], layer))

    out = {}
    for layer, kinds in LAYERS.items():
        calls = sum(
            v for key, v in counts.items()
            if key.endswith(".calls") and _in_layer(key[: -len(".calls")], layer)
        )
        values = {"calls": calls, "busy_s": busy(layer) / k, "share": busy(layer) / wall}
        for kind in kinds:
            out[f"{layer}.{kind}"] = (values[kind], UNITS[kind])
    solver_calls = out["solver.calls"][0]
    nodes = counts.get("solver.nodes", 0)
    timed = busy("solver.min_abnormal") / k
    out["generate.graphs"] = (counts.get("generate.graphs", 0), "count")
    out["solver.nodes"] = (nodes, "count")
    out["solver.nodes_per_s"] = (nodes / timed if timed else 0.0, "1/s")
    out["solver.limit_ratio"] = (
        counts.get("solver.limits", 0) / solver_calls if solver_calls else 0.0, "ratio"
    )
    out["trace.overhead_ratio"] = (
        statistics.median(p.calibrated() for p in traced)
        / statistics.median(p.calibrated() for p in untraced),
        "ratio",
    )
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # a source checkout without git metadata
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "normalcol").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("networkx", "numpy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "normalcol" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/normalcol", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import normalcol
    import workloads

    if Path(normalcol.__file__).resolve().parent != SRC / "normalcol":
        print(f"error: normalcol was imported from {normalcol.__file__}", file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    state = workloads.setup(args.workload, args.seed)
    spans: list[dict] = []
    passes = measure(workloads, args.workload, state, args.seconds, args.trace, spans)

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for _, _, errors in p.ops if errors)
    problems = [e for p in passes for _, _, errors in p.ops for e in errors]
    problems += [e for p in passes for e in p.errors]
    if any(p.counts != passes[0].counts for p in passes):
        problems.append("counters differ between passes of one run")
    correct = not problems and attempted > 0
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics, printed = per_layer(passes, spans), {}
    else:
        metrics, printed = end_to_end(passes, setup)
    env = environment()
    walls = [round(p.wall, 6) for p in passes]
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {state['fingerprint']}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"counters per pass {json.dumps(passes[0].counts, sort_keys=True)}")
    print(f"{len(passes)} passes of {len(passes[0].ops)} operations, walls_s {walls},"
          f" {len(setup)} set-ups")
    printed["fail_ratio"] = (failed / max(attempted, 1), "ratio")
    for key, (value, unit) in {**metrics, **printed}.items():
        print(f"{key:26s} {value:14.6f} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": state["fingerprint"], "environment": env,
        "counters_per_pass": passes[0].counts, "pass_walls_s": walls,
        "setup_samples_s": setup, "attempted": attempted, "failed": failed,
        "problems": sorted(set(problems)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **printed}.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        t0 = min(s["start"] for s in spans)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for s in sorted(spans, key=lambda s: s["id"]):
                fh.write(json.dumps({**s, "start": s["start"] - t0, "end": s["end"] - t0}) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
