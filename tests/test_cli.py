from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import normalcol
from normalcol import cli, constructions
from normalcol.cli import build_parser, main
from normalcol.coloring import EdgeColoring, write_coloring
from normalcol.constructions import (
    DEMO_VARIANTS,
    Q3_TWO_ABNORMAL,
    DemoReport,
    composite_graph,
    disjoint_copies,
)
from normalcol.formats import parse_graph, write_graph
from normalcol.graphs import catalog
from normalcol.petersen import canonical_petersen, pullback
from normalcol.solver import SearchConfig, SolveResult, SolveStatus, min_abnormal

from conftest import bridged_multigraph, bridged_simple_10, triple_edge


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["petersen_el"] = tmp_path / "petersen.el"
    paths["petersen_el"].write_text(write_graph(catalog("petersen"), "edge-list"))
    paths["petersen_s6"] = tmp_path / "petersen.s6"
    paths["petersen_s6"].write_text(write_graph(catalog("petersen"), "sparse6"))
    paths["k4"] = tmp_path / "k4.el"
    paths["k4"].write_text(write_graph(catalog("k4"), "edge-list"))
    paths["kneser"] = tmp_path / "kneser.col"
    paths["kneser"].write_text(write_coloring(canonical_petersen().ctilde))
    paths["bridged"] = tmp_path / "bridged.s6"
    paths["bridged"].write_text(write_graph(bridged_multigraph(), "sparse6"))
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_kneser(files, capsys):
    code, out = run(capsys, [
        "classify", "--graph", str(files["petersen_el"]), "--coloring", str(files["kneser"]),
    ])
    assert code == 0
    assert "# counts poor=0 rich=15 abnormal=0 normal=true" in out


def test_classify_json(files, capsys):
    code, out = run(capsys, [
        "classify", "--graph", str(files["petersen_el"]),
        "--coloring", str(files["kneser"]), "--out", "json",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == {"poor": 0, "rich": 15, "abnormal": 0}
    assert obj["checks"]["proper"] is True
    assert "graph" in obj["inputs"] and "coloring" in obj["inputs"]


def test_solve_petersen(files, capsys):
    code, out = run(capsys, ["solve", "--graph", str(files["petersen_s6"])])
    assert code == 0
    obj = json.loads(out)
    assert obj["min_abnormal"] == 0
    assert obj["checks"]["witness_proper"] is True
    assert obj["checks"]["witness_count_matches"] is True


def test_chi_n(files, capsys, tmp_path):
    # the empty graph's empty coloring is normal at the first k tried
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    for graph in (files["k4"], empty):
        code, out = run(capsys, ["chi-n", "--graph", str(graph)])
        assert code == 0
        assert out.strip().splitlines()[-1] == "3"


def test_chi_n_solves_once_per_k(files, capsys, monkeypatch):
    from normalcol import solver

    real = solver.min_abnormal
    ks = []

    def counting(graph, cfg=None):
        ks.append(cfg.k)
        return real(graph, cfg)

    monkeypatch.setattr(solver, "min_abnormal", counting)
    code, out = run(capsys, ["chi-n", "--graph", str(files["petersen_s6"]), "--out", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["normal_chromatic_index"] == 5 and obj["checks"]["witness_normal"] is True
    assert ks == [3, 4, 5]


def test_scan_tsv_summary(files, capsys):
    code, out = run(capsys, ["scan", "--n", "6"])
    assert code == 0
    assert "# graphs=2 minima={0:2} single_abnormal=0" in out


def test_scan_rows_are_the_library_calls(capsys):
    # row i is the connectivity report and exact solve of the i-th class
    from normalcol.generate import enumerate_cubic
    from normalcol.graphs import connectivity_report

    code, out = run(capsys, ["scan", "--n", "10", "--out", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    graphs = list(enumerate_cubic(10, distinct=True))
    assert len(rows) == len(graphs) == 19
    assert [row["bridgeless"] for row in rows].count(False) == 1
    for gid, (row, g) in enumerate(zip(rows, graphs)):
        report, result = connectivity_report(g), min_abnormal(g)
        assert result.status is SolveStatus.OPTIMAL
        assert row == {
            "graph_id": gid, "n": 10, "m": 15,
            "bridgeless": report.bridgeless, "cyc4": report.cyclically_4_edge_connected,
            "min_abnormal": result.best_count, "nodes": result.nodes_explored,
            "millis": None, "status": "optimal", "witness": list(result.witness.colors),
        }


def test_scan_tsv_shape(capsys):
    # K4 is the only class at n = 4
    code, out = run(capsys, ["scan", "--n", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == [
        "graph_id", "n", "m", "bridgeless", "cyc4", "min_abnormal", "nodes", "millis",
    ]
    assert lines[1].split("\t")[-1] == "-"  # timing suppressed by default
    _, out = run(capsys, ["scan", "--n", "4", "--timing"])
    assert out.splitlines()[1].split("\t")[-1].isdigit()
    _, out = run(capsys, ["scan", "--n", "4", "--out", "json"])
    obj = json.loads(out)
    assert obj["rows"][0]["witness"] is not None
    assert obj["single_abnormal"] == []


def test_scan_node_limit_is_not_a_minimum(capsys):
    code, out = run(capsys, ["scan", "--n", "8", "--node-limit", "5"])
    assert code == 3  # incomplete: no row was proved
    rows = [line.split("\t") for line in out.splitlines()[1:-1]]
    assert len(rows) == 5 and all(row[5] == "limit" for row in rows)
    assert all(row[6] == "5" for row in rows)  # nodes explored, not the one that tripped
    assert out.splitlines()[-1] == "# graphs=5 minima={} single_abnormal=0 unresolved=5"


def test_scan_node_limit_keeps_proved_rows(capsys):
    # the n = 8 classes need 18-21 nodes; the two that need 21 have found a
    # normal coloring by node 20, and a minimum of 0 is proved once found
    code, out = run(capsys, ["scan", "--n", "8", "--node-limit", "20"])
    assert code == 0
    cells = [line.split("\t")[5] for line in out.splitlines()[1:-1]]
    assert cells == ["0", "0", "0", "0", "0"]
    assert out.splitlines()[-1] == "# graphs=5 minima={0:5} single_abnormal=0"
    code, out = run(capsys, ["scan", "--n", "8", "--node-limit", "20", "--out", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["distribution"] == {"0": 5}
    assert [row["status"] for row in obj["rows"]] == ["optimal"] * 5


def test_scan_deterministic_bytes(files, capsys):
    _, first = run(capsys, ["scan", "--n", "6", "--out", "json"])
    _, second = run(capsys, ["scan", "--n", "6", "--out", "json"])
    assert first == second


# full stdout sha256 of the default scan reports; a change here means the
# minima, statuses, node counts or witnesses moved
SCAN_SHA256 = {
    ("--n", "10"): "6682d229f0959c407c0b0d96997fc7a76d687d4d9906dcaec937109cc2f47765",
    ("--n", "12"): "e6f7650c3abce3bff36fcc5ebc7a96c90d3b0251fc6870897e390fb3d77e5059",
    ("--n", "12", "--out", "json"):
        "b3782af28871a23ff7b219a6898bd311e32fa4c4fa0160cd5ad43e7e4fdbc1ec",
}


@pytest.mark.parametrize("flags", list(SCAN_SHA256), ids=" ".join)
def test_scan_bytes_pinned(capsys, flags):
    code, out = run(capsys, ["scan", *flags])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_SHA256[flags]


# sha256 of the n = 12 JSON scan report with every row's node count dropped,
# taken before the forward check: pruning may move node counts, never the
# minima, statuses or witnesses
SCAN_OUTCOMES_SHA256 = "45e70d91b75ae6f3108c4cb01fbe642b8f675591cbd83c260ee7bf4136a95077"


def test_scan_outcomes_pinned(capsys):
    code, out = run(capsys, ["scan", "--n", "12", "--out", "json"])
    assert code == 0
    obj = json.loads(out)
    for row in obj["rows"]:
        del row["nodes"]
    blob = json.dumps(obj, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == SCAN_OUTCOMES_SHA256


# exit code and full stdout sha256 of every subcommand's report, taken before
# the handlers shared one report writer; an argv word that names a `files`
# key stands for that file's path
REPORT_PINS = {
    "classify --graph petersen_el --coloring kneser --out tsv":
        (0, "9f4619cea4b7b70f009a984a875491c6c2ea9d5aafaa8dfb12ed40ba9cb91a5f"),
    "classify --graph petersen_el --coloring kneser --out json":
        (0, "ae0cd96a6c82ba12d7bdce6de6fa1db7df39a5261005d1bf063aaec35c5d732a"),
    "solve --graph petersen_s6 --out tsv":
        (0, "e967612b70dcf37ae1e892c8bab6c0367a4ba3f8bf2979cc593a3a1f3d2459d4"),
    "solve --graph petersen_s6 --out json":
        (0, "ba36625f5aafc26c80a8bd1ad1fb0387a1c9bdba0fa0946965a67e5d1cd0fdd1"),
    "solve --graph petersen_s6 --node-limit 10 --out tsv":
        (3, "109d2f9caa55bcaee7b199955ac71b5b78b8d2aa431230e47d983f4370d72d5a"),
    "solve --graph petersen_s6 --node-limit 10 --out json":
        (3, "0d2e5515024425d6debe8b54441d88f81cb1d5ede8fbcf80063f06737ec3a46e"),
    "chi-n --graph petersen_s6 --out tsv":
        (0, "90eb5dfde54996603d45bb47e48ae90b772adaa898ab5dd3ab6323523dda80f1"),
    "chi-n --graph petersen_s6 --out json":
        (0, "3cb387b4ad4bed803acf09347264ec1eb78e4e72616237f2d73e4d65fedcdc4d"),
    "chi-n --graph bridged --out tsv":
        (0, "16cd7002be879385f94488813274d0305d975f6b16dc7815e28f64355a29d99a"),
    "chi-n --graph bridged --out json":
        (0, "04dc7319233e117997531d4b9053190d9b72c28a9c62a5cd004cebda7386b861"),
    "jaeger --graph petersen_el --out tsv":
        (0, "6cdc628369abc11f8791a3db875fda80689fad1de687ea7d7958f1a0b5078513"),
    "jaeger --graph petersen_el --out json":
        (0, "6c93a695a9002f839f4db8574b9567f6950f9bcf9e6aa3b5a7a4cf5b8b752fe3"),
    "question31 --n 8 --out tsv":
        (0, "d162150b0dcae02ca3a9acf5592333dd250ef3810c3ed13530682623beb259f8"),
    "question31 --n 8 --out json":
        (0, "9b4dd15c984aacfd034f11ae605ffb5e099ab4fcc30e50929365ecb0236fe25e"),
    "demo --variant disjoint --graph petersen_el --t 2":
        (0, "25d832ea1d5d92b8a06ca86d61576448a1326a3329c029602efc8e4dd9f0d22f"),
    "demo --variant cyclic1 --graph petersen_el --t 2":
        (0, "af946af5acb4d47ba6879c53546bb6509959e7cd9c595c1deba5df086413e545"),
    "demo --variant vertex_replacement --graph petersen_el --t 2":
        (0, "6de6dbaadb0d39a38ed50e5250594cb589b69895078203a4872adb19e79a937c"),
    "demo --variant cyclic2 --graph petersen_el --t 2":
        (0, "81ef566a3170a17d958f9d6e9c7249a3a951ad153d142e504f63d6086e7e0a68"),
    "construct --variant cyclic2 --graph petersen_el --t 2":
        (0, "35831f9be90432d4bcfac5f7343f506d24b36a63f7a987560d9f5b711068d051"),
    # --format names the output's format; the sparse6 input is detected
    "construct --variant cyclic2 --graph petersen_s6 --t 2 --format sparse6":
        (0, "ed66afd8cd3ed3ab0c1ea4f992944065046746a7a9212c504d86c15cb97a0bdd"),
    "plot --graph petersen_el --coloring kneser":
        (0, "f1034bbac04e551f03e064793cd77979de4967d17c4c680502e5a5220f5d1bae"),
}


@pytest.mark.parametrize("argv", list(REPORT_PINS))
def test_report_bytes_pinned(files, capsys, argv):
    code, out = run(capsys, [str(files[a]) if a in files else a for a in argv.split()])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == REPORT_PINS[argv]


@pytest.mark.parametrize("out", ["tsv", "json"])
def test_solve_node_limit_is_incomplete(files, capsys, out):
    code = main(["solve", "--graph", str(files["petersen_s6"]), "--node-limit", "10",
                 "--out", out])
    captured = capsys.readouterr()
    assert code == 3
    assert "incomplete: the node limit stopped the solve" in captured.err
    if out == "json":
        obj = json.loads(captured.out)
        assert (obj["status"], obj["min_abnormal"], obj["nodes"]) == ("limit", -1, 10)
    else:
        assert captured.out.splitlines()[-1] == "limit\t-1\t10"


def test_solve_the_vertex_replacement_composite(files, capsys, tmp_path):
    # 54 vertices, minimum 0: the normal-coloring probe finds a witness in
    # 47,606 nodes; without it the search still held 19 abnormal edges
    # after 2 M nodes
    code, composite = run(capsys, [
        "construct", "--variant", "vertex_replacement", "--graph", str(files["petersen_el"]),
        "--t", "2",
    ])
    assert code == 0
    path = tmp_path / "composite.el"
    path.write_text(composite)
    code, out = run(capsys, ["solve", "--graph", str(path), "--node-limit", "400000"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["status"], obj["min_abnormal"]) == ("optimal", 0)
    assert obj["checks"] == {"witness_proper": True, "witness_count_matches": True}


def test_solve_deeper_than_the_recursion_limit(tmp_path):
    # 1,050 edges in one bridgeless piece: the search recurses once per
    # colored edge, past the interpreter's default limit of 1,000 frames
    path = tmp_path / "prism700.el"
    path.write_text(write_graph(catalog("prism", 350), "edge-list"))
    src = str(Path(normalcol.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-m", "normalcol", "solve", "--graph", str(path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    obj = json.loads(out.stdout)
    assert (obj["status"], obj["min_abnormal"]) == ("optimal", 0)
    assert obj["checks"]["witness_proper"] is True


@pytest.mark.parametrize("graph", ["petersen_s6", "bridged"])
def test_solve_with_a_million_colors(files, capsys, graph):
    # no piece uses more colors than it has edges, so a huge k answers at once
    code, out = run(capsys, ["solve", "--graph", str(files[graph]), "--k", "1000000"])
    assert code == 0
    obj = json.loads(out)
    m = len(obj["witness"])
    code, at_m = run(capsys, ["solve", "--graph", str(files[graph]), "--k", str(m)])
    assert code == 0
    assert obj == json.loads(at_m)
    assert obj["checks"] == {"witness_proper": True, "witness_count_matches": True}


def test_each_input_file_is_read_once(files, capsys, monkeypatch):
    # the reported hash belongs to the very bytes that were parsed
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    graph, coloring = files["petersen_el"], files["kneser"]
    code, out = run(capsys, [
        "classify", "--graph", str(graph), "--coloring", str(coloring), "--out", "json",
    ])
    assert code == 0
    assert sorted(opened) == sorted([str(graph), str(coloring)])
    assert json.loads(out)["inputs"] == {
        "graph": hashlib.sha256(graph.read_bytes()).hexdigest(),
        "coloring": hashlib.sha256(coloring.read_bytes()).hexdigest(),
    }


def test_jaeger_roundtrip(files, capsys):
    code, out = run(capsys, [
        "jaeger", "--graph", str(files["petersen_el"]),
        "--coloring", str(files["kneser"]), "--out", "json",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["checks"] == {"h_coloring": True, "roundtrip": True}
    assert obj["phi"] == list(range(15))


def test_jaeger_solver_supplied(files, capsys):
    code, out = run(capsys, ["jaeger", "--graph", str(files["petersen_s6"]), "--out", "json"])
    assert code == 0
    assert json.loads(out)["checks"]["roundtrip"] is True


def test_jaeger_roundtrip_below_five_colors(files, capsys, tmp_path):
    # a normal 3- or 4-edge-coloring is a normal 5-edge-coloring too; the
    # pullback always declares k = 5, so the round trip compares colors
    k4 = str(files["k4"])
    for k in ("3", "4"):
        code, out = run(capsys, ["jaeger", "--graph", k4, "--k", k, "--out", "json"])
        assert code == 0
        assert json.loads(out)["checks"] == {"h_coloring": True, "roundtrip": True}
    col = tmp_path / "k4.col"
    col.write_text(write_coloring(EdgeColoring(3, (1, 2, 3, 3, 2, 1))))
    code, out = run(capsys, ["jaeger", "--graph", k4, "--coloring", str(col), "--out", "json"])
    assert code == 0
    assert json.loads(out)["checks"] == {"h_coloring": True, "roundtrip": True}
    code, out = run(capsys, ["jaeger", "--graph", k4, "--coloring", str(col), "--out", "tsv"])
    assert code == 0
    assert out.splitlines()[-1] == "# h_coloring=true roundtrip=true"


def test_jaeger_rejects_huge_colors_quickly(files, capsys, tmp_path):
    # a few bytes of coloring file name colors near 10^9; the check that
    # they exceed 5 must not cost memory that grows with the values
    kneser = canonical_petersen().ctilde
    shift = 10**9
    col = tmp_path / "shifted.col"
    col.write_text(write_coloring(
        EdgeColoring(kneser.k + shift, tuple(c + shift for c in kneser.colors))
    ))
    start = time.perf_counter()
    code, _ = run(capsys, ["jaeger", "--graph", str(files["petersen_el"]), "--coloring", str(col)])
    assert code == 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", ["6", "7", "8"])
def test_jaeger_above_five_colors_solves_at_five(files, capsys, k):
    # a k-witness for k > 5 may use colors 6..k, which no Petersen-coloring
    # maps; the solver runs at 5 colors instead
    code, out = run(capsys, ["jaeger", "--graph", str(files["petersen_el"]), "--k", k])
    assert code == 0
    assert json.loads(out)["checks"] == {"h_coloring": True, "roundtrip": True}


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "4", "--k", "0"],
    ["solve", "--graph", "K4", "--k", "2"],
    ["jaeger", "--graph", "K4", "--k", "2"],
])
def test_fewer_than_three_colors_is_a_usage_error(files, capsys, argv):
    # no cubic graph has a proper coloring in fewer than 3 colors, so a k
    # below 3 is a bad argument, not an infeasible instance
    argv = [str(files["k4"]) if a == "K4" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_construct_roundtrips(files, capsys):
    code, out = run(capsys, [
        "construct", "--variant", "cyclic1", "--graph", str(files["k4"]), "--t", "3",
    ])
    assert code == 0
    g = parse_graph(out, "edge-list")
    assert (g.n, g.m) == (12, 18)


def test_construct_sparse6_output(files, capsys):
    code, out = run(capsys, [
        "construct", "--variant", "disjoint", "--graph", str(files["k4"]),
        "--t", "2", "--format", "sparse6",
    ])
    assert code == 0 and out.startswith(":")
    g = parse_graph(out, "sparse6")
    assert (g.n, g.m) == (8, 12)
    assert sorted(g.edges) == sorted(disjoint_copies(catalog("k4"), 2).edges)


def test_only_construct_takes_a_format():
    # graph inputs are always detected; --format names construct's output
    subcommands = build_parser()._subparsers._group_actions[0].choices
    formats = {
        name: action.choices
        for name, sub in subcommands.items()
        for action in sub._actions
        if "--format" in action.option_strings
    }
    assert formats == {"construct": ("edge-list", "sparse6")}
    assert subcommands["construct"].get_default("format") == "edge-list"


def test_construct_format_names_only_the_output(files, capsys):
    # the edge-list input is detected, and the composite written as sparse6
    code, out = run(capsys, [
        "construct", "--variant", "cyclic2", "--graph", str(files["petersen_el"]),
        "--format", "sparse6",
    ])
    assert code == 0 and out.startswith(":")
    composite = composite_graph(catalog("petersen"), "cyclic2", 2)
    assert sorted(parse_graph(out, "sparse6").edges) == sorted(composite.edges)


@pytest.mark.parametrize("variant", ["vertex_replacement", "two_cut"])
def test_construct_second_graph_file(files, capsys, variant):
    from normalcol import constructions

    code, out = run(capsys, [
        "construct", "--variant", variant, "--graph", str(files["k4"]),
        "--graph2", str(files["petersen_s6"]),
    ])
    assert code == 0
    k4 = catalog("k4")
    petersen = parse_graph(files["petersen_s6"].read_text(), "sparse6")  # sparse6 edge order
    if variant == "vertex_replacement":
        expected = constructions.vertex_replacement(petersen, k4, 0)
    else:
        expected = constructions.two_cut_connection(k4, 0, petersen, 0)
    assert parse_graph(out, "edge-list") == expected


@pytest.mark.parametrize("flags", [
    ["--variant", "cyclic2", "--edge", "99", "--edge2", "3"],
    ["--variant", "two_cut", "--edge", "99"],
    ["--variant", "k4_gadget", "--edge", "99"],
    ["--variant", "k4_gadget", "--edge", "-1"],
])
def test_construct_rejects_unknown_edge_id(files, capsys, tmp_path, flags):
    graph = tmp_path / "q3.el"
    graph.write_text(write_graph(catalog("q3"), "edge-list"))
    col = tmp_path / "q3.col"
    col.write_text(write_coloring(EdgeColoring(5, Q3_TWO_ABNORMAL)))
    argv = ["construct", "--graph", str(graph), *flags]
    if "k4_gadget" in flags:
        argv += ["--coloring", str(col)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    bad = flags[flags.index("--edge") + 1]
    assert captured.err == f"error: unknown edge id {bad}\n"


@pytest.mark.parametrize("old, new", [(5, 6), (4, 7)])
def test_construct_k4_gadget_rejects_colors_beyond_five(capsys, tmp_path, old, new):
    graph = tmp_path / "q3.el"
    graph.write_text(write_graph(catalog("q3"), "edge-list"))
    col = tmp_path / "q3.col"
    colors = tuple(new if c == old else c for c in Q3_TWO_ABNORMAL)
    col.write_text(write_coloring(EdgeColoring(new, colors)))
    code = main(["construct", "--variant", "k4_gadget", "--graph", str(graph),
                 "--coloring", str(col)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: the K4 gadget needs a proper 5-edge-coloring\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("t", ["0", "-2"])
def test_construct_vertex_replacement_rejects_t_below_one(files, capsys, t):
    code = main(["construct", "--variant", "vertex_replacement",
                 "--graph", str(files["petersen_el"]), "--t", t])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: t must be at least 1\n"


@pytest.mark.parametrize("flags", [
    ["--variant", "vertex_replacement", "--graph2", "k33", "--t", "-3"],
    ["--variant", "two_cut", "--t", "0"],
    ["--variant", "cyclic2", "--t", "0"],
])
def test_construct_rejects_t_below_one_for_every_variant(files, capsys, tmp_path, flags):
    # a host from --graph2, and variants that take no copy count, still
    # reject a t below 1 instead of building a composite
    k33 = tmp_path / "k33.el"
    k33.write_text(write_graph(catalog("k33"), "edge-list"))
    flags = [str(k33) if f == "k33" else f for f in flags]
    code = main(["construct", "--graph", str(files["petersen_el"]), *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: t must be at least 1\n"


@pytest.mark.parametrize("variant, t, message", [
    ("cyclic2", "1", "t must be at least 2"),
    ("disjoint", "0", "t must be at least 1"),
])
def test_demo_and_construct_share_the_copy_count_message(files, capsys, variant, t, message):
    # the builders alone check the copy count, so both commands say the same
    for command in ("demo", "construct"):
        code = main([command, "--variant", variant, "--graph", str(files["petersen_el"]),
                     "--t", t])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("variant", DEMO_VARIANTS)
@pytest.mark.parametrize("name", ["petersen", "k4"])
def test_construct_prints_the_demo_composite(files, capsys, name, variant, t):
    # construct's defaults (edge 0, the first 3-path, replacement_host(t),
    # vertex 0) must build the composite that demo runs on
    graph = files["petersen_el" if name == "petersen" else "k4"]
    code, out = run(capsys, ["construct", "--variant", variant, "--graph", str(graph),
                             "--t", str(t)])
    assert code == 0
    assert out == write_graph(composite_graph(catalog(name), variant, t))


def test_demo_json(files, capsys):
    code, out = run(capsys, [
        "demo", "--variant", "cyclic2", "--graph", str(files["petersen_el"]), "--t", "2",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["abnormal_final"] <= obj["bound"] == 9
    assert obj["nV_H"] == 20


def test_question31(files, capsys):
    code, out = run(capsys, ["question31", "--n", "6"])
    assert code == 0
    assert "# violations=0" in out


def test_question31_rows_json(capsys):
    from normalcol.generate import enumerate_cubic
    from normalcol.graphs import connectivity_report

    code, out = run(capsys, ["question31", "--n", "8", "--out", "json"])
    assert code == 0
    obj = json.loads(out)
    bridgeless = [
        gid for gid, g in enumerate(enumerate_cubic(8, distinct=True))
        if connectivity_report(g).bridgeless
    ]
    assert [row["graph_id"] for row in obj["rows"]] == bridgeless
    assert all(row["has_normal_5"] == (row["min_abnormal"] == 0) for row in obj["rows"])
    assert obj["violations"] == []


def test_question31_matches_the_unbudgeted_filter(capsys):
    # question31 solves at budget 2; the reference proves every minimum and
    # keeps the bridgeless rows at most 2
    from normalcol.generate import enumerate_cubic
    from normalcol.graphs import connectivity_report

    code, out = run(capsys, ["question31", "--n", "10", "--out", "json"])
    assert code == 0
    expected = []
    for gid, g in enumerate(enumerate_cubic(10, distinct=True)):
        best = min_abnormal(g).best_count
        if connectivity_report(g).bridgeless and best <= 2:
            expected.append({"graph_id": gid, "min_abnormal": best, "has_normal_5": best == 0})
    assert expected  # the n = 10 classes do reach the filter
    assert json.loads(out) == {"n": 10, "rows": expected, "violations": []}


def test_question31_solves_only_bridgeless_classes(capsys, monkeypatch):
    # the bridged class never reaches the report, so it is not solved
    from normalcol.generate import enumerate_cubic
    from normalcol.graphs import connectivity_report

    solved = []

    def recorder(graph, cfg):
        solved.append(graph)
        return min_abnormal(graph, cfg)

    monkeypatch.setattr(cli, "min_abnormal", recorder)
    code, out = run(capsys, ["question31", "--n", "10"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "27d784d18b3399dc28a61ffbe369c65d7fb0315f3d3eae7ae955d783be64a048")
    classes = list(enumerate_cubic(10, distinct=True))
    assert len(classes) == 19
    assert solved == [g for g in classes if connectivity_report(g).bridgeless]
    assert len(solved) == 18
    assert all(connectivity_report(g).bridgeless for g in solved)


def test_plot_svg(files, capsys):
    code, out = run(capsys, [
        "plot", "--graph", str(files["petersen_el"]), "--coloring", str(files["kneser"]),
    ])
    assert code == 0
    assert out.startswith("<svg ")
    assert out.rstrip().endswith("</svg>")
    assert 'stroke="#2266aa"' in out  # rich styling present


def test_plot_multigraph_parallel_arcs(files, capsys):
    code, out = run(capsys, ["plot", "--graph", str(files["bridged"])])
    assert code == 0
    assert "<path " in out  # parallel edges bow out


def test_usage_errors(files, capsys):
    assert main(["nosuchcommand"]) == 1
    assert main(["solve", "--graph", "/does/not/exist"]) == 1
    assert main(["solve"]) == 1  # missing required flag


def test_malformed_graph_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.s6"
    for text in (":~", ":~~~", ":~~~~~~~~~~", "1000000000 0\n"):
        bad.write_text(text)
        assert main(["solve", "--graph", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_demo_with_supplied_composite_coloring(files, capsys, tmp_path):
    from normalcol.constructions import composite_graph
    from normalcol.solver import SearchConfig, min_abnormal

    k4 = catalog("k4")
    h = composite_graph(k4, "disjoint", 2)
    witness = min_abnormal(h, SearchConfig(abnormal_budget=0)).witness
    col = tmp_path / "h.col"
    col.write_text(write_coloring(witness))
    code, out = run(capsys, [
        "demo", "--variant", "disjoint", "--graph", str(files["k4"]),
        "--t", "2", "--coloring", str(col),
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["abnormal_H"] == 0
    assert "coloring" in obj["inputs"]


def test_demo_builds_the_composite_once(files, capsys, tmp_path, monkeypatch):
    from normalcol import constructions

    h = constructions.composite_graph(catalog("petersen"), "cyclic2", 2)
    col = tmp_path / "h.col"
    col.write_text(write_coloring(min_abnormal(h, SearchConfig(abnormal_budget=0)).witness))
    builds = []
    build = constructions._build_composite
    monkeypatch.setattr(
        constructions, "_build_composite", lambda *a: builds.append(a[1:]) or build(*a)
    )
    code, out = run(capsys, [
        "demo", "--variant", "cyclic2", "--graph", str(files["petersen_el"]),
        "--t", "2", "--coloring", str(col),
    ])
    assert code == 0 and json.loads(out)["pass"] is True
    assert builds == [("cyclic2", 2)]


@pytest.mark.parametrize("flag", ["--edge", "--edge2"])
def test_construct_cyclic2_needs_both_edges(files, capsys, flag):
    code = main([
        "construct", "--variant", "cyclic2", "--graph", str(files["petersen_el"]), flag, "3",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "both --edge and --edge2" in captured.err


def test_multigraph_chi_n_reports_limit(files, capsys):
    # no k up to m = 9 admits a normal coloring: a certified "none", exit 0
    code, out = run(capsys, ["chi-n", "--graph", str(files["bridged"])])
    assert code == 0
    assert out.splitlines()[-2:] == ["normal_chromatic_index", "none"]
    code, out = run(capsys, ["chi-n", "--graph", str(files["bridged"]), "--out", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["normal_chromatic_index"] is None and obj["witness"] is None
    assert obj["checks"] == {}


def test_solve_budget_infeasible_is_honest(files, capsys):
    code, out = run(capsys, [
        "solve", "--graph", str(files["bridged"]), "--budget", "0", "--out", "json",
    ])
    assert code == 0  # a certified "nothing within budget" is a valid answer
    obj = json.loads(out)
    assert obj["status"] == "infeasible"
    assert obj["min_abnormal"] == -1
    assert obj["witness"] is None


def test_jaeger_without_normal_coloring_fails_loudly(files, capsys):
    code = main(["jaeger", "--graph", str(files["bridged"])])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "verification failure: no normal 5-edge-coloring exists for this graph\n"


def test_classify_improper_pairing_rejected(files, capsys, tmp_path):
    # kneser coloring indexed against a sparse6-parsed graph mismatches ids
    code = main([
        "classify", "--graph", str(files["petersen_s6"]), "--coloring", str(files["kneser"]),
    ])
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["solve", "--graph", "{dir}"],
    ["construct", "--variant", "two_cut", "--graph", "{k4}", "--graph2", "{dir}"],
    ["classify", "--graph", "{k4}", "--coloring", "{dir}"],
])
def test_directory_path_is_a_usage_error(files, capsys, tmp_path, flags):
    code = main([f.format(dir=tmp_path, k4=files["k4"]) for f in flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["classify", "demo"])
def test_short_coloring_is_a_usage_error(files, capsys, tmp_path, command):
    col = tmp_path / "short.col"
    col.write_text("5\n0 1\n1 2\n")
    argv = [command, "--graph", str(files["petersen_el"]), "--coloring", str(col)]
    if command == "demo":
        argv += ["--variant", "disjoint", "--t", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "covers 2 edges" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--graph", "{petersen}", "--budget", "-1"],
     "abnormal_budget must be non-negative"),
    (["construct", "--variant", "cyclic2", "--graph", "{triple}"],
     "no path of length three found"),
    (["demo", "--variant", "cyclic2", "--t", "2", "--graph", "{triple}"],
     "no path of length three found"),
    (["construct", "--variant", "k4_gadget", "--graph", "{petersen}", "--coloring", "{kneser}"],
     "the coloring has no abnormal edge to extend"),
    (["demo", "--variant", "disjoint", "--t", "2", "--graph", "{petersen}",
      "--coloring", "{improper}"],
     "supplied composite coloring is not proper"),
    (["construct", "--variant", "k4_gadget", "--graph", "{petersen}"],
     "k4_gadget needs --coloring to locate an abnormal edge"),
    (["solve", "--graph", "{petersen}", "--node-limit", "-1"],
     "node_limit must be non-negative"),
    (["scan", "--n", "4", "--node-limit", "-1"],
     "node_limit must be non-negative"),
], ids=["negative-budget", "construct-no-3-path", "demo-no-3-path", "gadget-normal",
        "demo-improper", "gadget-no-coloring", "solve-negative-node-limit",
        "scan-negative-node-limit"])
def test_input_error_is_a_usage_error(files, capsys, tmp_path, argv, message):
    triple = tmp_path / "triple.el"
    triple.write_text(write_graph(triple_edge(), "edge-list"))
    # the disjoint demo at t = 2 colors two Petersen copies, 30 edges
    improper = tmp_path / "improper.col"
    improper.write_text(write_coloring(EdgeColoring(5, (1,) * 30)))
    code = main([a.format(petersen=files["petersen_el"], kneser=files["kneser"],
                          triple=triple, improper=improper) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def _solved(minimum: int) -> SolveResult:
    return SolveResult(SolveStatus.OPTIMAL, minimum, None, 0)


# (argv, module and name of the call the handler makes, its stand-in, a
# line of the report, the stderr, the exit code)
_FAILED_CHECKS = {
    "solve": (
        ["solve", "--graph", "{petersen}"], cli, "min_abnormal",
        lambda graph, cfg: replace(min_abnormal(graph, cfg), best_count=1),
        '"witness_count_matches":false',
        "verification failure: witness checks failed\n", 2),
    "chi-n": (
        ["chi-n", "--graph", "{q3}"], cli, "_normal_index_witness",
        lambda graph: EdgeColoring(5, Q3_TWO_ABNORMAL),
        "normal_chromatic_index\n5\n",
        "verification failure: no normal witness at the reported index\n", 2),
    "scan": (
        ["scan", "--n", "4"], cli, "min_abnormal",
        lambda graph, cfg: _solved(1),
        "# graphs=1 minima={1:1} single_abnormal=1\n",
        "verification failure: a graph with exactly one abnormal edge appeared\n", 2),
    "jaeger": (
        ["jaeger", "--graph", "{petersen}", "--coloring", "{kneser}"], cli, "pullback",
        lambda graph, phi: EdgeColoring(5, tuple(c % 5 + 1 for c in pullback(graph, phi).colors)),
        '"checks":{"h_coloring":true,"roundtrip":false}',
        "verification failure: Jaeger round-trip did not close\n", 2),
    "demo": (
        ["demo", "--variant", "disjoint", "--t", "2", "--graph", "{petersen}"],
        constructions, "pigeonhole_demo",
        lambda graph, variant, t, coloring: DemoReport(variant, t, 20, 8, None, None, 7, False),
        '"pass":false',
        "verification failure: demo bound not met\n", 2),
    "question31": (
        ["question31", "--n", "4"], cli, "min_abnormal",
        lambda graph, cfg: _solved(2),
        "0\t2\t0\n# violations=1\n",
        "note: bridgeless graph(s) with min <= 2 but no normal 5-edge-coloring: [0]\n", 0),
}


@pytest.mark.parametrize("case", list(_FAILED_CHECKS))
def test_failed_check_reports_then_exits(files, capsys, tmp_path, monkeypatch, case):
    # each handler prints its report before main turns a failed check into
    # one stderr line; question31 only notes its violations
    argv, module, name, fake, line, err, exit_code = _FAILED_CHECKS[case]
    q3 = tmp_path / "q3.el"
    q3.write_text(write_graph(catalog("q3"), "edge-list"))
    monkeypatch.setattr(module, name, fake)
    code = main([a.format(petersen=files["petersen_el"], kneser=files["kneser"], q3=q3)
                 for a in argv])
    captured = capsys.readouterr()
    assert line in captured.out
    assert captured.err == err
    assert code == exit_code


# ---------------------------------------------------------------------------
# Seeded fuzz: every subcommand, malformed flags and files
# ---------------------------------------------------------------------------

_HUGE = str(10**18)
_INTS = ["-7", "-1", "0", "1", "2", "3", "5", "x", "1.5", ""]
# --t and --n stay small where they size a build or an enumeration: a huge
# value there is a request for a huge graph, not malformed input
_SIZES = ["-7", "-1", "0", "1", "2", "3", "4", "x", ""]
_NS = ["-7", "0", "2", "3", "4", "6", "8", "9", "x", "", str(10**18 + 1)]


def _fuzz_files(tmp_path) -> dict[str, str]:
    petersen_s6 = write_graph(catalog("petersen"), "sparse6")
    texts = {
        "k4": write_graph(catalog("k4"), "edge-list"),
        "q3": write_graph(catalog("q3"), "edge-list"),
        "bridged": write_graph(bridged_multigraph(), "sparse6"),
        "bridged10": write_graph(bridged_simple_10(), "edge-list"),
        "empty_graph": "0 0\n",
        "huge_header": "1000000000 0\n",
        "not_cubic": "4 2\n0 1\n2 3\n",
        "empty": "",
    }
    for cut in (1, 2, 5, len(petersen_s6) // 2, len(petersen_s6) - 2):
        texts[f"s6_cut{cut}"] = petersen_s6[:cut]
    k4_colors = (1, 2, 3, 3, 2, 1)
    colorings = {
        "col_k4": k4_colors,
        "col_q3": Q3_TWO_ABNORMAL,
        "col_short": k4_colors[:4],
        "col_long": k4_colors + (2, 3),
        "col_bad_color": (0, 2, 3, 3, 2, 1),
    }
    for name, colors in colorings.items():
        texts[name] = "5\n" + "".join(f"{e} {c}\n" for e, c in enumerate(colors))
    texts["col_gap"] = "5\n0 1\n1 2\n3 3\n"
    texts["col_repeat"] = "5\n0 1\n1 2\n1 3\n"
    texts["col_header"] = "five\n0 1\n"
    texts["col_huge_k"] = f"{_HUGE}\n" + "".join(f"{e} {c}\n" for e, c in enumerate(k4_colors))
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    paths["binary"] = tmp_path / "binary"
    paths["binary"].write_bytes(b"\xff\xfe\x80 \x00\n\xc3")
    paths["dir"] = tmp_path / "subdir"
    paths["dir"].mkdir()
    paths["missing"] = tmp_path / "missing"
    return {name: str(path) for name, path in paths.items()}


def _fuzz_argvs(rng: random.Random, files: dict[str, str]):
    graphs = [p for name, p in files.items() if not name.startswith("col_")]
    colorings = [p for name, p in files.items() if name.startswith("col_")]
    colorings += [files["binary"], files["dir"], files["missing"], files["k4"]]
    small = [files[name] for name in ("k4", "q3", "bridged", "bridged10", "empty_graph")]
    pick = rng.choice

    def maybe(argv, flag, values):
        if rng.random() < 0.5:
            argv += [flag, pick(values)]

    # every k from 0 to 12, on every subcommand that takes one
    for k in range(13):
        for graph in small:
            yield ["solve", "--graph", graph, "--k", str(k)]
            yield ["jaeger", "--graph", graph, "--k", str(k)]
        yield ["scan", "--n", pick(["4", "6", "8"]), "--k", str(k)]
    for _ in range(40):
        argv = ["solve", "--graph", pick(graphs)]
        maybe(argv, "--k", _INTS + ["8", "12"])
        maybe(argv, "--budget", _INTS + [_HUGE])
        maybe(argv, "--node-limit", _INTS + [_HUGE])
        maybe(argv, "--out", ["tsv", "json", "xml"])
        yield argv
        yield ["chi-n", "--graph", pick(graphs), "--out", pick(["tsv", "json"])]
        for command in ("classify", "jaeger", "plot"):
            argv = [command, "--graph", pick(small + graphs)]
            maybe(argv, "--coloring", colorings)
            yield argv
        argv = ["scan", "--n", pick(_NS)]
        maybe(argv, "--k", _INTS + ["8", "12"])
        maybe(argv, "--node-limit", _INTS + [_HUGE])
        maybe(argv, "--out", ["tsv", "json"])
        yield argv
        argv = ["question31", "--n", pick(_NS)]
        maybe(argv, "--out", ["tsv", "json"])
        yield argv
        variant = pick(["disjoint", "cyclic1", "cyclic2", "vertex_replacement", "two_cut",
                        "k4_gadget", "nosuch"])
        argv = ["construct", "--variant", variant, "--graph", pick(small + graphs)]
        maybe(argv, "--t", _SIZES)
        maybe(argv, "--edge", _INTS + [_HUGE])
        maybe(argv, "--edge2", _INTS + [_HUGE])
        maybe(argv, "--vertex", _INTS + [_HUGE])
        maybe(argv, "--graph2", graphs)
        maybe(argv, "--coloring", colorings)
        yield argv
        argv = ["demo", "--variant", pick(["disjoint", "cyclic1", "cyclic2",
                                           "vertex_replacement", "nosuch"])]
        argv += ["--graph", pick([files["k4"], files["bridged"], files["empty_graph"]] + graphs)]
        argv += ["--t", pick(_SIZES)]
        maybe(argv, "--coloring", colorings)
        yield argv
    # huge --t where it sizes nothing: variants that ignore it, and a graph
    # that fails the demo's connectivity requirement before any build
    yield ["construct", "--variant", "two_cut", "--graph", files["k4"], "--t", _HUGE]
    yield ["construct", "--variant", "k4_gadget", "--graph", files["q3"], "--t", _HUGE,
           "--coloring", files["col_q3"]]
    yield ["demo", "--variant", "disjoint", "--graph", files["bridged"], "--t", _HUGE]


_EXIT_PREFIXES = {1: "error: ", 2: "verification failure: ", 3: "incomplete: "}


def test_cli_fuzz_ends_in_a_documented_exit_code(tmp_path, capsys):
    # a failing run ends stderr with one line that names its exit code; a
    # successful run may only leave notes there
    files = _fuzz_files(tmp_path)
    runs = 0
    for argv in _fuzz_argvs(random.Random(20217), files):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        lines = err.splitlines()
        if code:
            assert lines and lines[-1].startswith(_EXIT_PREFIXES[code]), argv
        else:
            assert all(line.startswith("note: ") for line in lines), argv
        runs += 1
    assert runs > 400
