"""The public names the benchmark in perfbench/workloads.py calls.

Removing or renaming one of them breaks the benchmark; this test makes that
fail here first.
"""

from __future__ import annotations

import normalcol

BENCHMARK_NAMES = (
    "has_normal_k",
    "pigeonhole_demo",
    "build_p_coloring",
    "verify_h_coloring",
    "pullback",
    "canonical_petersen",
    "connectivity_report",
    "min_abnormal",
    "parse_graph",
    "enumerate_cubic",
    "catalog",
    "is_proper",
    "abnormal_set",
    "SolveStatus",
)


def test_benchmark_api_exists():
    missing = [name for name in BENCHMARK_NAMES if not hasattr(normalcol, name)]
    assert missing == []
    from normalcol.constructions import DEMO_VARIANTS, composite_graph

    assert callable(composite_graph)
    assert DEMO_VARIANTS == ("disjoint", "cyclic1", "vertex_replacement", "cyclic2")
