from __future__ import annotations

import random

import networkx as nx
import pytest

from normalcol.errors import DegreeError, LoopError, ParseError
from normalcol.formats import detect_format, parse_graph, write_graph
from normalcol.graphs import CubicGraph, catalog

from conftest import (
    bridged_multigraph,
    disjoint_union,
    random_bridge_tree,
    random_cubic_multigraph,
    triple_edge,
)

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_edge_list_k4():
    g = parse_graph(K4_TEXT, "edge-list")
    assert g.n == 4 and g.m == 6
    assert g.edges == catalog("k4").edges


def test_edge_list_roundtrip(petersen):
    text = write_graph(petersen, "edge-list")
    again = parse_graph(text, "edge-list")
    assert again.n == petersen.n and again.edges == petersen.edges


def test_edge_list_degree_error():
    bad = "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"
    with pytest.raises(DegreeError):
        parse_graph(bad, "edge-list")


def test_edge_list_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("", "edge-list")
    with pytest.raises(ParseError):
        parse_graph("4\n0 1\n", "edge-list")
    with pytest.raises(ParseError):
        parse_graph("4 1\n0 9\n", "edge-list")
    with pytest.raises(ParseError):
        parse_graph("4 1\nx y\n", "edge-list")


def _nx_multigraph(g: CubicGraph) -> nx.MultiGraph:
    out = nx.MultiGraph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


CORPUS = [catalog("k4"), catalog("petersen"), catalog("q3"), catalog("k33"),
          catalog("prism", 6), bridged_multigraph(), triple_edge()]


@pytest.mark.parametrize(
    "graph", CORPUS, ids=["k4", "petersen", "q3", "k33", "prism6", "bridged-multi", "triple"],
)
def test_sparse6_roundtrip_and_reference(graph):
    # our encoder must agree byte for byte with the reference implementation
    ours = write_graph(graph, "sparse6")
    ref = nx.to_sparse6_bytes(_nx_multigraph(graph), header=False).decode("ascii")
    assert ours == ref

    # and parsing a reference-encoded string must recover the labeled graph
    again = parse_graph(ref, "sparse6")
    assert again.n == graph.n
    assert sorted(again.edges) == sorted(graph.edges)


def test_sparse6_roundtrip_random_multigraphs():
    # n <= 62 takes a one-character size field, n >= 64 the four-character
    # one; n = 64 -> 66 also widens each vertex label from 6 to 7 bits
    rng = random.Random(20219)
    graphs = []
    for n in (2, 4, 6, 10, 16, 18, 32, 34, 60, 62, 64, 66, 130):
        graphs += [random_cubic_multigraph(rng, n) for _ in range(2)]
    for left, right in ((2, 2), (4, 58), (30, 32), (32, 32), (2, 64)):
        graphs.append(disjoint_union(random_cubic_multigraph(rng, left),
                                     random_cubic_multigraph(rng, right)))
    for sizes in ([3, 3], [3, 4, 3], [21, 20, 21], [21, 22, 21]):
        chain = [(i, i + 1) for i in range(len(sizes) - 1)]
        graphs.append(random_bridge_tree(rng, sizes, chain))
    assert {62, 64} <= {g.n for g in graphs}
    for graph in graphs:
        text = write_graph(graph, "sparse6")
        assert detect_format(text) == "sparse6"
        again = parse_graph(text, "sparse6")
        assert again.n == graph.n
        assert sorted(map(sorted, again.edges)) == sorted(map(sorted, graph.edges))


def test_sparse6_parse_reference_petersen():
    ref = nx.to_sparse6_bytes(_nx_multigraph(catalog("petersen")), header=False)
    g = parse_graph(ref.decode("ascii"), "sparse6")
    assert (g.n, g.m) == (10, 15)


def test_sparse6_header_accepted(petersen):
    body = write_graph(petersen, "sparse6")
    g = parse_graph(">>sparse6<<" + body, "sparse6")
    assert g.n == 10


def test_sparse6_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("no-colon", "sparse6")
    with pytest.raises(ParseError):
        parse_graph(":", "sparse6")
    # 63 announces a 4- or 8-character size field; these are cut short
    for text in (":~", ":~A", ":~AB", ":~~", ":~~ABCDE"):
        with pytest.raises(ParseError):
            parse_graph(text, "sparse6")


def test_size_beyond_the_data_is_rejected_early():
    # n = 2**36 - 1 must be refused before any per-vertex allocation
    with pytest.raises(DegreeError):
        parse_graph(":~~~~~~~~~~", "sparse6")
    with pytest.raises(DegreeError):
        parse_graph("1000000000 0\n", "edge-list")


def _malformed(rng: random.Random, graph: CubicGraph) -> tuple[str, str]:
    """A text that is malformed by construction, in one of the two formats."""
    lines = write_graph(graph, "edge-list").splitlines()
    s6 = write_graph(graph, "sparse6").strip()
    kind = rng.randrange(6)
    if kind == 0:  # a character outside the sparse6 alphabet
        i = rng.randrange(1, len(s6) + 1)
        return s6[:i] + rng.choice("!\"#$%&'()*+,-./0123456789;<=\x7f\u00e9") + s6[i:], "sparse6"
    if kind == 1:  # a size field cut short
        tail = "".join(chr(rng.randrange(63, 126)) for _ in range(rng.randrange(3)))
        return rng.choice([":~", ":~~"]) + tail, "sparse6"
    if kind == 2:  # a token that is not an integer
        i = rng.randrange(len(lines))
        parts = lines[i].split()
        parts[rng.randrange(len(parts))] = rng.choice(["x", "1.5", "", "--", "0x3"])
        return "\n".join(lines[:i] + [" ".join(parts) or "?"] + lines[i + 1:]), "edge-list"
    if kind == 3:  # an edge line dropped or repeated
        i = rng.randrange(1, len(lines))
        kept = lines[:i] + lines[i + 1:] if rng.random() < 0.5 else lines + [lines[i]]
        return "\n".join(kept), "edge-list"
    if kind == 4:  # an endpoint out of range
        i = rng.randrange(1, len(lines))
        u, v = lines[i].split()
        bad = str(rng.choice([graph.n, graph.n + 7, -1]))
        lines[i] = f"{bad} {v}" if rng.random() < 0.5 else f"{u} {bad}"
        return "\n".join(lines), "edge-list"
    header = rng.choice(["", "4", "4 6 1", "a b"])  # a broken header
    return "\n".join([header] + lines[1:]), "edge-list"


def _mutated(rng: random.Random, graph: CubicGraph) -> tuple[str, str]:
    """A valid encoding with a random edit, or random text; may still parse."""
    fmt = rng.choice(["edge-list", "sparse6"])
    text = write_graph(graph, fmt)
    if rng.random() < 0.2:
        alphabet = "0123456789 \n" if fmt == "edge-list" else "".join(map(chr, range(58, 128)))
        return (":" if fmt == "sparse6" else "") + "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(16))), fmt
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:i], fmt
    if op == 1:
        return text[:i] + text[i + 1:], fmt
    return text[:i] + chr(rng.randrange(32, 127)) + text[i:], fmt


def test_fuzz_malformed_input_raises_parse_error():
    rng = random.Random(20210419)
    for _ in range(3000):
        text, fmt = _malformed(rng, rng.choice(CORPUS))
        with pytest.raises(ParseError):
            parse_graph(text, fmt)


def test_fuzz_random_edits_parse_or_raise_graph_errors():
    # Well-formed text of a non-cubic graph or with a loop is not a ParseError
    # but its siblings DegreeError and LoopError; nothing else may escape.
    rng = random.Random(20210420)
    for _ in range(3000):
        text, fmt = _mutated(rng, rng.choice(CORPUS))
        try:
            graph = parse_graph(text, fmt)
        except (ParseError, DegreeError, LoopError):
            continue
        assert all(len(graph.incidence[v]) == 3 for v in range(graph.n))


def test_detect_format(petersen):
    assert detect_format(write_graph(petersen, "sparse6")) == "sparse6"
    assert detect_format(K4_TEXT) == "edge-list"


def test_unknown_format(petersen):
    with pytest.raises(ValueError):
        write_graph(petersen, "graph6")
    with pytest.raises(ValueError):
        parse_graph(K4_TEXT, "graph6")
