"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The solver results for the full n <= 10 class enumeration are
shared across criteria through session fixtures.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager

import pytest

from normalcol.coloring import abnormal_set, is_normal, is_proper
from normalcol.constructions import (
    composite_graph,
    cyclic_join_two_edges,
    default_three_path,
    k_abnormal_example,
    pigeonhole_demo,
)
from normalcol.generate import enumerate_cubic
from normalcol.graphs import catalog, connectivity_report
from normalcol.petersen import (
    build_p_coloring,
    canonical_petersen,
    model_cycles,
    preimage_degrees,
    pullback,
    verify_h_coloring,
)
from normalcol.solver import (
    SearchConfig,
    SolveStatus,
    has_normal_k,
    min_abnormal,
    scan_no_single_abnormal,
)

from conftest import (
    bridged_multigraph,
    domino_multigraph,
    exhaustive_oracle,
    single_abnormal_ids,
    triple_edge,
)

EXPECTED_CLASSES = {4: 1, 6: 2, 8: 5, 10: 19}


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {text}")
        raise
    print(f"criterion {num}: PASS - {text}")


@pytest.fixture(scope="session")
def class_scans():
    """Exact minima for every isomorphism class with n in {4, 6, 8, 10}."""
    out = {}
    for n in (4, 6, 8, 10):
        graphs = list(enumerate_cubic(n, distinct=True))
        assert len(graphs) == EXPECTED_CLASSES[n], f"class count changed at n={n}"
        out[n] = (graphs, scan_no_single_abnormal(graphs))
    return out


@pytest.fixture(scope="session")
def normal_witnesses(class_scans):
    """(graph, witness) for every bridgeless class plus the Petersen graph."""
    pairs = []
    for n, (graphs, rows) in class_scans.items():
        for graph, row in zip(graphs, rows):
            if row.bridgeless and row.min_abnormal == 0:
                pairs.append((graph, row.witness))
    petersen = catalog("petersen")
    witness = has_normal_k(petersen, 5)
    assert witness is not None
    pairs.append((petersen, witness))
    return pairs


def test_criterion_1_no_single_abnormal(class_scans):
    with criterion(1, "no cubic graph with n <= 10 has exact minimum 1"):
        for n, (graphs, rows) in class_scans.items():
            assert len(rows) == EXPECTED_CLASSES[n]
            for row in rows:
                assert row.status is SolveStatus.OPTIMAL
                assert row.min_abnormal != 1
            assert single_abnormal_ids(rows) == []


# n -> (classes (OEIS A002851), bridgeless classes, minima), each measured
# by a full scan; the skip reasons give the time on a 2-core machine
_OPT_IN_SCANS = {
    14: (509, 480, {0: 480, 4: 29}),
    16: (4060, 3874, {0: 3874, 4: 185, 6: 1}),
    18: (41301, 39866, {0: 39866, 4: 1430, 6: 5}),
}


def _opt_in(n: int, seconds: str):
    slow = pytest.mark.skipif(
        not os.environ.get("NORMALCOL_SLOW"), reason=f"about {seconds}; set NORMALCOL_SLOW=1"
    )
    return pytest.param(n, marks=slow, id=f"n{n}")


@pytest.mark.parametrize("n", [_opt_in(14, "1 s"), _opt_in(16, "6 s"), _opt_in(18, "80 s")])
def test_criteria_1_and_2_opt_in(n):
    classes, bridgeless, minima = _OPT_IN_SCANS[n]
    with criterion(1, f"no cubic graph with n = {n} has exact minimum 1; minimum 0 iff bridgeless"):
        rows = scan_no_single_abnormal(enumerate_cubic(n, distinct=True))
        assert len(rows) == classes
        assert sum(row.bridgeless for row in rows) == bridgeless
        for row in rows:
            assert row.status is SolveStatus.OPTIMAL
            assert (row.min_abnormal == 0) == row.bridgeless
        assert Counter(row.min_abnormal for row in rows) == minima
        assert single_abnormal_ids(rows) == []


def test_criterion_2_bridgeless_admit_normal(class_scans):
    with criterion(2, "every bridgeless class with n <= 10, plus Petersen, has minimum 0"):
        for n, (graphs, rows) in class_scans.items():
            for row in rows:
                if row.bridgeless:
                    assert row.min_abnormal == 0
                    assert is_normal(graphs[row.graph_id], row.witness)
        petersen = catalog("petersen")
        assert min_abnormal(petersen).best_count == 0


def test_criterion_3_oracle_equivalence(class_scans):
    with criterion(3, "branch and bound equals the exhaustive oracle on the corpus"):
        corpus = []
        for n in (4, 6, 8):
            corpus.extend(class_scans[n][0])
        corpus.extend([bridged_multigraph(), domino_multigraph(), triple_edge()])
        for graph in corpus:
            assert graph.m <= 12
            oracle = exhaustive_oracle(graph)
            solved = min_abnormal(graph)
            assert oracle.best_count == solved.best_count


def test_criterion_4_jaeger_roundtrip(normal_witnesses):
    with criterion(4, "normal witnesses map to verified Petersen-colorings and back"):
        model = canonical_petersen()
        for graph, witness in normal_witnesses:
            phi = build_p_coloring(graph, witness)
            assert -1 not in phi
            assert verify_h_coloring(graph, model.graph, phi)
            assert pullback(graph, phi) == witness


def test_criterion_5_parity_engine(normal_witnesses):
    with criterion(5, "cycle preimages of normal witnesses have degrees 0 and 2 only"):
        cycles = model_cycles()
        assert len(cycles) == 57
        for graph, witness in normal_witnesses:
            for cyc in cycles:
                assert all(d in (0, 2) for d in preimage_degrees(graph, witness, cyc))


def test_criterion_6_k_abnormal_family():
    with criterion(6, "k-abnormal family sizes and counts for k = 2..8"):
        for k in range(2, 9):
            graph, coloring = k_abnormal_example(k)
            assert graph.n == 8 + 4 * (k - 2)
            assert is_proper(graph, coloring, 5)
            assert len(abnormal_set(graph, coloring)) == k


def test_criterion_7_cyclic_join_stays_cyc4():
    with criterion(7, "cyclic two-edge joins of Petersen stay cyclically 4-edge-connected"):
        petersen = catalog("petersen")
        e1, e2 = default_three_path(petersen)
        assert not set(petersen.edges[e1]) & set(petersen.edges[e2])
        for t in (2, 3):
            h = cyclic_join_two_edges(petersen, e1, e2, t)
            assert connectivity_report(h).cyclically_4_edge_connected


def test_criterion_8_table_demo_bounds():
    with criterion(8, "pigeonhole demos meet the bounds 0 / 5 / 7 / 9"):
        petersen = catalog("petersen")
        bounds = {"disjoint": 0, "cyclic1": 5, "vertex_replacement": 7, "cyclic2": 9}
        for variant, bound in bounds.items():
            for t in (2, 3):
                # every composite has a normal coloring, which the demo's
                # unlimited solve relies on; a node limit about 20x the largest
                # budget-0 count (47,606) makes a wrong prune fail here
                # in seconds instead of hanging the demo
                result = min_abnormal(
                    composite_graph(petersen, variant, t),
                    SearchConfig(k=5, abnormal_budget=0, node_limit=1_000_000),
                )
                assert result.status is SolveStatus.OPTIMAL and result.best_count == 0
                report = pigeonhole_demo(petersen, variant, t)
                assert report.bound == bound
                assert report.clean_copy_index is not None
                assert report.abnormal_final <= bound
                assert report.passed


def test_criterion_9_question_31_evidence(class_scans):
    with criterion(9, "bridgeless classes with n <= 8 and minimum <= 2 admit normal colorings"):
        violations = []
        for n in (4, 6, 8):
            graphs, rows = class_scans[n]
            for graph, row in zip(graphs, rows):
                if row.bridgeless and row.min_abnormal <= 2:
                    if has_normal_k(graph, 5) is None:
                        violations.append((n, row.graph_id))
        assert violations == []
