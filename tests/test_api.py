"""The public names the benchmark in perfbench/workloads.py calls.

Removing or renaming one of them breaks the benchmark; this test makes that
fail here first.
"""

from __future__ import annotations

import pytest

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


def test_benchmark_roundtrip_accepts_the_map():
    # the benchmark hands build_p_coloring's result straight to these two
    model = normalcol.canonical_petersen()
    phi = normalcol.build_p_coloring(model.graph, model.ctilde)
    assert normalcol.verify_h_coloring(model.graph, model.graph, phi)
    assert normalcol.pullback(model.graph, phi) == model.ctilde


def test_benchmark_call_shapes():
    # each entry point called with the arguments, positional and keyword,
    # that perfbench/workloads.py passes, so a signature change fails here
    from normalcol.constructions import composite_graph
    from normalcol.formats import write_graph

    assert next(normalcol.enumerate_cubic(4, distinct=True)).n == 4
    petersen = normalcol.catalog("petersen")
    g = normalcol.parse_graph(write_graph(petersen, "sparse6"), "sparse6")
    result = normalcol.min_abnormal(g)
    assert (result.status, result.best_count) == (normalcol.SolveStatus.OPTIMAL, 0)
    model = normalcol.canonical_petersen()
    phi = normalcol.build_p_coloring(g, result.witness)
    assert normalcol.verify_h_coloring(g, model.graph, phi)
    assert normalcol.pullback(g, phi) == result.witness
    h = composite_graph(petersen, "disjoint", 2)
    assert normalcol.connectivity_report(h).bridgeless
    witness = normalcol.has_normal_k(h, 5)
    assert normalcol.is_proper(h, witness) and not normalcol.abnormal_set(h, witness)
    demo = normalcol.pigeonhole_demo(petersen, "disjoint", 2)
    assert demo.passed and demo.bound == 0


def test_enumeration_streams_classes_only():
    # `distinct` takes only True, the value the benchmark passes and the
    # default; False raises at the first `next`, like a bad vertex count
    stream = normalcol.enumerate_cubic(6, distinct=False)
    with pytest.raises(ValueError, match="isomorphism classes"):
        next(stream)
    assert list(normalcol.enumerate_cubic(8)) == list(normalcol.enumerate_cubic(8, distinct=True))
