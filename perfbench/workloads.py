"""The benchmark's three workloads, driven through the library's public API.

Each workload has a `setup(seed)` that imports and builds everything a pass
needs, and a `run(state, probe)` that makes one pass and returns the
failures of its pass-level checks.  Every library call goes through
`probe.call` under the name of the layer it enters; every input is one
operation, timed with all its calls and checks.  Answers are judged by the
checks in `oracle`, by facts the paper proves, and by facts about the
constructions, never by the solver under test.
"""

from __future__ import annotations

import hashlib

import normalcol as nc
from normalcol.constructions import DEMO_VARIANTS, composite_graph

import corpus
import oracle

OK = nc.SolveStatus.OPTIMAL


def _verify(graph, witness):
    """The library's own verdict on a witness: (proper, abnormal count)."""
    if not nc.is_proper(graph, witness):
        return False, None
    return True, len(nc.abnormal_set(graph, witness))


def _roundtrip(graph, witness):
    """Normal coloring -> Petersen-coloring -> verified -> pulled back."""
    model = nc.canonical_petersen()
    pcol = nc.build_p_coloring(graph, witness)
    verified = nc.verify_h_coloring(graph, model.graph, pcol)
    return verified, nc.pullback(graph, pcol)


def _check_witness(op, probe, graph, witness, expected: int) -> None:
    """A witness must be proper with exactly `expected` abnormal edges, by
    the library's coloring layer and by the independent recount alike."""
    if witness is None:
        op.check(False, "no witness")
        return
    proper, count = probe.call("coloring.verify", _verify, graph, witness)
    recount = oracle.abnormal_count(graph.n, graph.edges, witness.colors)
    op.check(proper and count == expected, f"coloring layer says {count}, expected {expected}")
    op.check(recount == expected, f"recount gives {recount}, expected {expected}")


def _check_roundtrip(op, probe, graph, witness) -> None:
    verified, back = probe.call("petersen.roundtrip", _roundtrip, graph, witness)
    op.check(verified and back == witness, "Petersen round trip did not close")


# ---------------------------------------------------------------------------
# scan-n12: the exhaustive scan behind "no graph has exactly one abnormal edge"
# ---------------------------------------------------------------------------

SCAN_N = 12
SCAN_CLASSES = 85  # connected cubic graphs on 12 vertices, OEIS A002851


def scan_setup(seed: int) -> dict:
    # The first distinct enumeration imports the isomorphism filter's
    # dependencies; do it here so passes measure steady work.
    next(nc.enumerate_cubic(4, distinct=True))
    nc.canonical_petersen()
    return {"fingerprint": _sha(f"enumerate_cubic(n={SCAN_N}, distinct=True)")}


def scan_run(state: dict, probe) -> list[str]:
    stream = nc.enumerate_cubic(SCAN_N, distinct=True)
    classes = 0
    while True:
        with probe.op() as op:
            graph = probe.call("generate", next, stream, None)
            if graph is None:
                op.discard()
                break
            classes += 1
            probe.count("generate.graphs")
            report = probe.call("graphs.connectivity", nc.connectivity_report, graph)
            result = probe.call("solver.min_abnormal", nc.min_abnormal, graph)
            probe.count("solver.nodes", result.nodes_explored)
            probe.count("solver.limits", result.status is nc.SolveStatus.LIMIT)
            bridgeless = oracle.is_bridgeless(graph.n, graph.edges)
            op.check(report.bridgeless == bridgeless, "bridge report disagrees with the oracle")
            op.check(result.status is OK, f"status {result.status.value}")
            op.check(result.best_count != 1, "a minimum equal to 1")
            op.check((result.best_count == 0) == bridgeless, "minimum 0 is not exactly bridgeless")
            _check_witness(op, probe, graph, result.witness, result.best_count)
            if result.best_count == 0:
                _check_roundtrip(op, probe, graph, result.witness)
    if classes != SCAN_CLASSES:
        return [f"{classes} classes, expected {SCAN_CLASSES}"]
    return []


# ---------------------------------------------------------------------------
# solve-bridged: exact solves that must prove optimality, on parsed input
# ---------------------------------------------------------------------------

def bridged_setup(seed: int) -> dict:
    graphs = corpus.build(seed)
    return {"graphs": graphs, "fingerprint": corpus.fingerprint(graphs)}


def bridged_run(state: dict, probe) -> list[str]:
    for text, n, edges in state["graphs"]:
        with probe.op() as op:
            graph = probe.call("formats.parse", nc.parse_graph, text, "sparse6")
            same = graph.n == n and sorted(graph.edges) == sorted(
                (min(e), max(e)) for e in edges
            )
            op.check(same, "parsed graph differs from the encoded one")
            report = probe.call("graphs.connectivity", nc.connectivity_report, graph)
            op.check(not report.bridgeless, "the bridge was not reported")
            result = probe.call("solver.min_abnormal", nc.min_abnormal, graph)
            probe.count("solver.nodes", result.nodes_explored)
            probe.count("solver.limits", result.status is nc.SolveStatus.LIMIT)
            op.check(result.status is OK, f"status {result.status.value}")
            op.check(result.best_count >= 2, f"minimum {result.best_count} on a bridged graph")
            _check_witness(op, probe, graph, result.witness, result.best_count)
    return []


# ---------------------------------------------------------------------------
# composites: the paper's constructions and 0/5/7/9 extension bounds
# ---------------------------------------------------------------------------

COMPOSITE_TS = (2, 3)
BOUNDS = {"disjoint": 0, "cyclic1": 5, "vertex_replacement": 7, "cyclic2": 9}
# (bridgeless, edge connectivity capped at 4, cyclically 4-edge-connected) of
# each composite of the Petersen graph: disjoint copies are disconnected;
# the one-edge ring has 2-edge cuts; each replaced vertex sits behind a
# 3-edge cut around a copy with cycles; two-edge cyclic joins of a cyclically
# 4-edge-connected graph stay cyclically 4-edge-connected.
CONNECTIVITY = {
    "disjoint": (True, 0, False),
    "cyclic1": (True, 2, False),
    "vertex_replacement": (True, 3, False),
    "cyclic2": (True, 3, True),
}


def _composite_vertices(variant: str, t: int) -> int:
    # vertex replacement over K_{3,3} (the host for t <= 3) has 6 copies of P - v
    return 6 * 9 if variant == "vertex_replacement" else 10 * t


def composites_setup(seed: int) -> dict:
    petersen = nc.catalog("petersen")
    nc.canonical_petersen()
    cases = [(v, t) for v in DEMO_VARIANTS for t in COMPOSITE_TS]
    return {
        "graph": petersen,
        "cases": cases,
        "fingerprint": _sha(f"{petersen.n} {list(petersen.edges)} {cases}"),
    }


def composites_run(state: dict, probe) -> list[str]:
    petersen = state["graph"]
    for variant, t in state["cases"]:
        with probe.op() as op:
            h = probe.call("constructions.build", composite_graph, petersen, variant, t)
            op.check(
                h.n == _composite_vertices(variant, t) and 2 * h.m == 3 * h.n,
                f"{variant} t={t}: composite has {h.n} vertices",
            )
            report = probe.call("graphs.connectivity", nc.connectivity_report, h)
            got = (report.bridgeless, report.edge_connectivity, report.cyclically_4_edge_connected)
            op.check(got == CONNECTIVITY[variant], f"{variant} t={t}: connectivity {got}")
            op.check(oracle.is_bridgeless(h.n, h.edges), f"{variant} t={t}: oracle finds a bridge")
            demo = probe.call("constructions.demo", nc.pigeonhole_demo, petersen, variant, t)
            bound = BOUNDS[variant]
            op.check(
                demo.passed and demo.bound == bound
                and demo.abnormal_final is not None and demo.abnormal_final <= bound,
                f"{variant} t={t}: demo ends with {demo.abnormal_final} > {bound}",
            )
            witness = probe.call("solver.has_normal_k", nc.has_normal_k, h, 5)
            _check_witness(op, probe, h, witness, 0)
            if witness is not None:
                _check_roundtrip(op, probe, h, witness)
    return []


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {
    "scan-n12": (scan_setup, scan_run),
    "solve-bridged": (bridged_setup, bridged_run),
    "composites": (composites_setup, composites_run),
}


def setup(name: str, seed: int) -> dict:
    return WORKLOADS[name][0](seed)


def run(name: str, state: dict, probe) -> list[str]:
    return WORKLOADS[name][1](state, probe)
