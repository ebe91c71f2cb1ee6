from __future__ import annotations

import json

import pytest

from normalcol.cli import main
from normalcol.coloring import write_coloring
from normalcol.formats import parse_graph, write_graph
from normalcol.graphs import catalog
from normalcol.petersen import canonical_petersen

from conftest import bridged_multigraph


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


def test_chi_n(files, capsys):
    code, out = run(capsys, ["chi-n", "--graph", str(files["k4"])])
    assert code == 0
    assert out.strip().splitlines()[-1] == "3"


def test_scan_tsv_summary(files, capsys):
    code, out = run(capsys, ["scan", "--n", "6"])
    assert code == 0
    assert "# graphs=2 minima={0:2} single_abnormal=0" in out


def test_scan_node_limit_is_not_a_minimum(capsys):
    code, out = run(capsys, ["scan", "--n", "8", "--node-limit", "5"])
    assert code == 3  # incomplete: no row was proved
    rows = [line.split("\t") for line in out.splitlines()[1:-1]]
    assert len(rows) == 5 and all(row[5] == "limit" for row in rows)
    assert out.splitlines()[-1] == "# graphs=5 minima={} single_abnormal=0 unresolved=5"


def test_scan_node_limit_keeps_proved_rows(capsys):
    # the n = 8 classes need 18-21 nodes: a limit of 20 proves three of them
    code, out = run(capsys, ["scan", "--n", "8", "--node-limit", "20"])
    assert code == 3
    cells = [line.split("\t")[5] for line in out.splitlines()[1:-1]]
    assert cells == ["0", "0", "0", "limit", "limit"]
    assert out.splitlines()[-1] == "# graphs=5 minima={0:3} single_abnormal=0 unresolved=2"
    code, out = run(capsys, ["scan", "--n", "8", "--node-limit", "20", "--out", "json"])
    assert code == 3
    assert json.loads(out)["distribution"] == {"0": 3}


def test_scan_deterministic_bytes(files, capsys):
    _, first = run(capsys, ["scan", "--n", "6", "--out", "json"])
    _, second = run(capsys, ["scan", "--n", "6", "--out", "json"])
    assert first == second


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
        "--t", "2", "--format", "edge-list",
    ])
    assert code == 0
    assert parse_graph(out, "edge-list").n == 8


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


def test_multigraph_chi_n_reports_limit(files, capsys):
    code = main(["chi-n", "--graph", str(files["bridged"])])
    err = capsys.readouterr().err
    assert code == 1
    assert "up to 7" in err


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
    assert "no normal" in err


def test_classify_improper_pairing_rejected(files, capsys, tmp_path):
    # kneser coloring indexed against a sparse6-parsed graph mismatches ids
    code = main([
        "classify", "--graph", str(files["petersen_s6"]), "--coloring", str(files["kneser"]),
    ])
    assert code == 1
