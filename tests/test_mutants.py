"""Recorded mutants, each checked against the tests that catch it (opt-in:
NORMALCOL_SLOW=1).  That each edit names text found exactly once in its
module is checked on every run.

A mutant is one exact text edit to a module of normalcol.  The check copies
the package and these tests into a temporary directory, applies the edit to
the copy, and runs the named tests there in a subprocess; a run that
outlasts its timeout counts as failed.  Kinds:

* killed: the run of `fails` must fail.
* weakening: a sound weakening of a pruning rule, so only node-count pins may
  fail: the run of `fails` (node pins) must fail and the run of `passes`
  (outcome pins) must pass.
* equivalent: no input found tells it apart, so the run of `passes` must pass.

A pruning rule or fast path added later records its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import normalcol

_TIMEOUT = 120  # seconds per run; the slowest named test takes a few


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    kind: str
    fails: tuple[str, ...] = ()
    passes: tuple[str, ...] = ()


_NODE_PINS = ("tests/test_solver.py::test_search_order_pinned",)
_OUTCOME_PINS = (
    "tests/test_solver.py::test_class_outcomes_pinned",
    "tests/test_solver.py::test_composite_outcomes_pinned",
    "tests/test_solver.py::test_replacement_family_outcomes_pinned",
    "tests/test_cli.py::test_scan_outcomes_pinned",
    "tests/test_solver.py::test_n16_outcomes_pinned",
)
# the outcome pins for the weakenings that switch the 3-edge-cut check, its
# propagation or its vertex stars off: the small classes and the composites,
# where the check prunes most.  The family's pin and n = 16 take seconds
# each with the check off
_CUT_OUTCOME_PINS = (
    "tests/test_solver.py::test_class_outcomes_pinned",
    "tests/test_solver.py::test_composite_outcomes_pinned",
    "tests/test_cli.py::test_scan_outcomes_pinned",
)
_COMPOSITE_NODES = ("tests/test_solver.py::test_search_order_pinned_on_composites",)
_CONNECTIVITY = ("tests/test_graphs.py::test_connectivity_matches_brute_force",)

MUTANTS = [
    # the cut space read by connectivity_report and the solver's bridge split
    Mutant("shared-endpoint-exclusion-dropped", "graphs.py",
           "if len({*ends[c[0]], *ends[c[1]], *ends[c[2]]}) == 6]",
           "if len({*ends[c[0]], *ends[c[1]], *ends[c[2]]}) >= 4]",
           "killed", fails=_CONNECTIVITY),
    # the 3-edge cuts: a 2-cut plus a bridge, anywhere in G, is no cut of
    # the component the search colors
    Mutant("three-cuts-through-bridges", "graphs.py",
           "if sets[eid]:  # not a bridge", "if True:  # not a bridge",
           "killed", fails=("tests/test_graphs.py::test_three_cuts_match_brute_force",)),
    Mutant("tree-edge-own-bit", "graphs.py",
           "sets[up[v]] = below[v]\n", "sets[up[v]] = below[v] ^ (1 << up[v])\n",
           "killed", fails=_CONNECTIVITY),
    # the one star table: the degree check reads it
    Mutant("degree-check-only-above-three", "graphs.py",
           "if len(star) != 3:", "if len(star) > 3:",
           "killed", fails=("tests/test_graphs.py::test_degree_error",)),
    # the branch-edge scan
    Mutant("branch-edge-back-at-end", "solver.py",
           "uncolored.insert(i, eid)", "uncolored.append(eid)",
           "killed", fails=_NODE_PINS),
    Mutant("branch-tie-to-highest-id", "solver.py",
           "if s > score:", "if s >= score:",
           "killed", fails=_NODE_PINS),
    # the tight forward check
    Mutant("forward-check-colors-up-to-max-used", "solver.py",
           "pop, (1 << top) - 1)", "pop, (1 << top - 1) - 1)",
           "killed", fails=(
               "tests/test_solver.py::test_petersen_not_4_normal",
               "tests/test_solver.py::test_normal_chromatic_index",
               "tests/test_solver.py::test_composite_outcomes_pinned",
           )),
    Mutant("forward-check-ignores-w-palette", "solver.py",
           "if not color[f]:\n                free &= ~q\n",
           "if not color[f]:\n                pass\n",
           "weakening", fails=_NODE_PINS, passes=_OUTCOME_PINS),
    # the 3-edge-cut check, and the one guard that builds it only for the
    # searches whose every edge must be normal, in at most 5 colors
    Mutant("three-cut-check-in-no-search", "solver.py",
           "if cap == 0 and k <= 5 and not piece.bridged else None", "if False else None",
           "weakening", fails=("tests/test_solver.py::test_search_order_pinned_on_a_cut_class",),
           passes=_CUT_OUTCOME_PINS),
    Mutant("three-cut-check-in-every-search", "solver.py",
           "if cap == 0 and k <= 5 and not piece.bridged else None", "if True else None",
           "killed", fails=("tests/test_solver.py::test_search_order_pinned_on_a_k4_proof",)),
    Mutant("three-cut-check-above-five-colors", "solver.py",
           "cap == 0 and k <= 5 and not", "cap == 0 and not",
           "killed", fails=("tests/test_solver.py::test_cut_check_built_only_where_read",)),
    # a bridged piece is searched at cap 0 only where a leaf piece (minimum
    # at least 2 for k <= 5) makes G infeasible anyway, so no outcome moves:
    # the build count sees it
    Mutant("three-cut-check-in-bridged-pieces", "solver.py",
           "k <= 5 and not piece.bridged else", "k <= 5 else",
           "killed", fails=("tests/test_solver.py::test_cut_check_built_only_where_read",)),
    Mutant("three-cut-check-off", "solver.py",
           "for i, three in enumerate(cons):", "for i, three in enumerate(()):",
           "weakening", fails=("tests/test_solver.py::test_search_order_pinned_on_a_cut_class",),
           passes=_CUT_OUTCOME_PINS),
    # the model-edge domains and the star test: a narrowed domain re-reads
    # the other constraints through its edge, which only node pins see
    Mutant("cut-propagation-off", "solver.py",
           "through[a], through[b], through[c])", "(), (), ())",
           "weakening", fails=("tests/test_solver.py::test_search_order_pinned_on_replacement_family",),
           passes=_CUT_OUTCOME_PINS),
    # the narrowings kept down the search: a check that keeps what an earlier
    # sibling's subtree narrowed prunes normal colorings
    Mutant("trail-kept-on-backtrack", "solver.py",
           "while len(trail) > mark:", "while False:",
           "killed", fails=("tests/test_solver.py::test_composite_outcomes_pinned",)),
    # the vertex stars, read only behind a snark: a gate that never answers
    # yes, or that skips the 9-vertex sides that close off into the Petersen
    # graph, only reads fewer of them
    Mutant("snark-stars-off", "solver.py",
           "if graph.n < 2 * _SIDE:", "if True:",
           "weakening", fails=_COMPOSITE_NODES, passes=_CUT_OUTCOME_PINS),
    Mutant("snark-side-bound-raised", "solver.py",
           "_SIDE = 9", "_SIDE = 11",
           "weakening", fails=_COMPOSITE_NODES, passes=_CUT_OUTCOME_PINS),
    Mutant("star-test-inverted", "solver.py",
           "        if (\n            x and y and z and x | y | z == star\n",
           "        if not (\n            x and y and z and x | y | z == star\n",
           "killed", fails=(
               "tests/test_solver.py::test_composite_outcomes_pinned",
               "tests/test_solver.py::test_replacement_family_outcomes_pinned",
           )),
    Mutant("domain-ignores-edge-color", "solver.py",
           "row = dom[color[a]]", "row = dom[0]",
           "killed", fails=(
               "tests/test_solver.py::test_composite_outcomes_pinned",
               "tests/test_solver.py::test_replacement_family_outcomes_pinned",
           )),
    # a wider domain is sound, so only the table oracle sees it
    Mutant("uncolored-domain-keeps-palette-colors", "solver.py",
           "if not p >> (c - 1) & 1:", "if True:",
           "killed", fails=("tests/test_solver.py::test_cut_check_domains_match_brute_force",)),
    # the bridge split: the minimum is the sum of the pieces' minima
    Mutant("piece-minima-not-summed", "solver.py",
           "total += best", "total = best",
           "killed", fails=("tests/test_solver.py::test_minimum_is_twice_the_leaf_count",)),
    # the Petersen map is defined on normal colorings only
    Mutant("abnormal-edge-mapped", "petersen.py",
           "if image != edge_at[(palettes[v], c)]:", "if False:",
           "killed", fails=(
               "tests/test_petersen.py::test_abnormal_edges_excluded",
               "tests/test_cli.py::test_jaeger_rejects_an_abnormal_coloring",
           )),
    # the sparse6 codec
    Mutant("sparse6-padding-stop-on-x-only", "formats.py",
           "if x >= n or v >= n:  # padding", "if x >= n:  # padding",
           "killed", fails=("tests/test_formats.py::test_sparse6_roundtrip_random_multigraphs",)),
    Mutant("sparse6-buffer-unmasked", "formats.py",
           "            buf &= (1 << nbits) - 1\n", "",
           "killed", fails=("tests/test_formats.py::test_sparse6_roundtrip_and_reference",)),
    Mutant("sparse6-zero-padding", "formats.py",
           'bits += "1" * (-len(bits) % 6)', 'bits += "0" * (-len(bits) % 6)',
           "killed", fails=("tests/test_formats.py::test_sparse6_roundtrip_and_reference",)),
    Mutant("sparse6-body-bound-loosened", "formats.py",
           "3 * n * (k + 1) > 12 * len(rest)", "3 * n * (k + 1) > 13 * len(rest)",
           "killed", fails=("tests/test_formats.py::test_sparse6_body_bound_boundary",)),
    Mutant("size-field-width-read-late", "formats.py",
           "len(data) > 1 and data[1] <= 62", "len(data) > 2 and data[1] <= 62",
           "killed", fails=("tests/test_formats.py::test_sparse6_parse_errors",)),
    Mutant("size-field-chunks-reversed", "formats.py",
           "for i in reversed(range(chars))]", "for i in range(chars)]",
           "killed", fails=("tests/test_formats.py::test_size_field_matches_reference",)),
    # the orderly class stream: its prunes must remove only subtrees without
    # a canonical candidate, which the pinned stream hashes see
    Mutant("stream-late-root-kept", "generate.py",
           "if 0 < v < n and deg[v] == 0:", "if False:",
           "killed", fails=(
               "tests/test_generate.py::test_distinct_counts",
               "tests/test_generate.py::test_stream_pinned",
           )),
    Mutant("stream-segment-order-inverted", "generate.py",
           "return seg < target[i]", "return seg > target[i]",
           "killed", fails=("tests/test_generate.py::test_stream_pinned",)),
    # a candidate whose first touch skips the smallest untouched label loses
    # to its BFS relabeling from root 0 on that segment, so the orderly test
    # rejects it anyway and the skip only saves time
    Mutant("stream-first-touch-off", "generate.py",
           "if deg[u] == 0 and u != fresh:", "if False:",
           "equivalent", passes=(
               "tests/test_generate.py::test_stream_pinned",
               "tests/test_generate.py::test_distinct_counts",
           )),
    # question31 solves only the bridgeless classes it reports on
    Mutant("question31-solves-bridged", "cli.py",
           "if connectivity_report(graph).bridgeless:", "if True:",
           "killed", fails=("tests/test_cli.py::test_question31_solves_only_bridgeless_classes",)),
]


def _passes(root: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, text=True, timeout=_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return False
    # 0: all passed, 1: some failed; anything else is a broken run
    assert run.returncode in (0, 1), run.stdout + run.stderr
    return run.returncode == 0


def _copy(root: Path) -> Path:
    """The package and these tests under root, with nothing pointing back."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(Path(normalcol.__file__).parent, root / "src" / "normalcol", ignore=skip)
    shutil.copytree(Path(__file__).parent, root / "tests", ignore=skip)
    (root / "pytest.ini").write_text("[pytest]\n")  # no pythonpath to the original
    return root / "src" / "normalcol"


_SLOW = pytest.mark.skipif(not os.environ.get("NORMALCOL_SLOW"), reason="set NORMALCOL_SLOW=1")


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_well_formed(mutant):
    # not opt-in, so deleting or editing the code a mutant names fails every
    # run, not only the opt-in runs below
    assert bool(mutant.fails) == (mutant.kind != "equivalent")
    assert bool(mutant.passes) == (mutant.kind != "killed")
    text = (Path(normalcol.__file__).parent / mutant.module).read_text()
    assert text.count(mutant.old) == 1


@_SLOW
def test_named_tests_pass_unmutated(tmp_path):
    _copy(tmp_path)
    named = {t for m in MUTANTS for t in m.fails + m.passes}
    assert _passes(tmp_path, tuple(sorted(named)))


@_SLOW
@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_caught(mutant, tmp_path):
    module = _copy(tmp_path) / mutant.module
    text = module.read_text()
    assert text.count(mutant.old) == 1
    module.write_text(text.replace(mutant.old, mutant.new))
    if mutant.fails:
        assert not _passes(tmp_path, mutant.fails), f"{mutant.name} survived"
    if mutant.passes:
        assert _passes(tmp_path, mutant.passes), f"{mutant.name} failed {mutant.passes}"
