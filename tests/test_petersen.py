from __future__ import annotations

import random

import pytest

from normalcol.coloring import EdgeColoring, abnormal_set, palette
from normalcol.constructions import Q3_TWO_ABNORMAL
from normalcol.errors import ImproperColoringError, ParseError, VerificationError
from normalcol.graphs import catalog
from normalcol.petersen import (
    PColoring,
    build_p_coloring,
    canonical_petersen,
    model_cycles,
    preimage_degrees,
    pullback,
    read_p_coloring,
    verify_h_coloring,
    write_p_coloring,
)
from normalcol.generate import enumerate_cubic
from normalcol.graphs import connectivity_report
from normalcol.solver import has_normal_k, min_abnormal

from conftest import random_cubic_multigraph

K4_PROPER = EdgeColoring(3, (1, 2, 3, 3, 2, 1))


@pytest.fixture(scope="module")
def model():
    return canonical_petersen()


def test_model_invariants(model):
    model.validate()
    # vertex 0 carries label {1,2}; its palette is the complement
    assert model.labels[0] == frozenset({1, 2})
    assert palette(model.graph, model.ctilde, 0) == frozenset({3, 4, 5})
    # the edge joining {1,2} and {3,4} is colored 5
    i = model.labels.index(frozenset({1, 2}))
    j = model.labels.index(frozenset({3, 4}))
    eid = (set(model.graph.incident(i)) & set(model.graph.incident(j))).pop()
    assert model.ctilde.colors[eid] == 5
    # palette_index inverts palettes
    for v in range(10):
        assert model.palette_index[palette(model.graph, model.ctilde, v)] == v
    # rich-rule instance: palettes {1,2,3} and {3,4,5} meet at the edge
    # joining {4,5} and {1,2}, whose model color is their intersection 3
    x = model.palette_index[frozenset({1, 2, 3})]
    y = model.palette_index[frozenset({3, 4, 5})]
    assert (model.labels[x], model.labels[y]) == (frozenset({4, 5}), frozenset({1, 2}))
    shared = (set(model.graph.incident(x)) & set(model.graph.incident(y))).pop()
    assert model.ctilde.colors[shared] == 3


def test_identity_map_on_model(model):
    phi = build_p_coloring(model.graph, model.ctilde)
    assert phi.is_total()
    assert phi.phi == tuple(range(15))
    assert verify_h_coloring(model.graph, model.graph, phi)
    assert pullback(model.graph, phi) == model.ctilde


def test_poor_rule_k4(model, k4):
    phi = build_p_coloring(k4, K4_PROPER)
    assert phi.is_total()
    # all palettes are {1,2,3}, so every edge maps into the star of the
    # vertex labeled {4,5}
    target = model.palette_index[frozenset({1, 2, 3})]
    assert model.labels[target] == frozenset({4, 5})
    star = set(model.graph.incident(target))
    assert set(phi.phi) <= star
    # the poor rule picks the edge at that star carrying the same color
    for eid in range(k4.m):
        assert model.ctilde.colors[phi.phi[eid]] == K4_PROPER.colors[eid]
    assert verify_h_coloring(k4, model.graph, phi)
    assert pullback(k4, phi) == EdgeColoring(5, K4_PROPER.colors)


def test_rich_rule_color_matches(model):
    # on the model coloring every edge is rich and maps to itself, which
    # checks the rich rule's color agreement edge by edge
    phi = build_p_coloring(model.graph, model.ctilde)
    for eid in range(15):
        assert model.ctilde.colors[phi.phi[eid]] == model.ctilde.colors[eid]


def test_jaeger_roundtrip_solver_witnesses(model):
    for name in ("k33", "q3", "petersen"):
        g = catalog(name)
        witness = has_normal_k(g, 5)
        phi = build_p_coloring(g, witness)
        assert verify_h_coloring(g, model.graph, phi)
        assert pullback(g, phi) == witness


def test_jaeger_roundtrip_random_witnesses(model):
    # every class with n <= 10 and random bridgeless multigraphs, each
    # witness under a random permutation of 1..5
    rng = random.Random(20210)
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n, distinct=True)]
    for n in (2, 4, 6, 8, 10, 12) * 4:
        graphs.append(random_cubic_multigraph(rng, n))
    witnesses = []
    for g in graphs:
        result = min_abnormal(g)
        assert (result.best_count == 0) == connectivity_report(g).bridgeless
        if result.best_count == 0:
            perm = rng.sample(range(1, 6), 5)
            witnesses.append((g, result.witness.permuted(dict(zip(range(1, 6), perm)))))
    assert len(witnesses) >= 40 and any(g.has_parallel_edges() for g, _ in witnesses)
    for g, witness in witnesses:
        phi = build_p_coloring(g, witness)
        assert verify_h_coloring(g, model.graph, phi)
        assert pullback(g, phi) == witness


def test_abnormal_edges_excluded(q3):
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    with pytest.raises(ImproperColoringError):
        build_p_coloring(q3, c, allow_abnormal=False)
    phi = build_p_coloring(q3, c, allow_abnormal=True)
    assert phi.domain == frozenset(range(q3.m)) - abnormal_set(q3, c)


def test_improper_rejected(k4):
    with pytest.raises(ImproperColoringError):
        build_p_coloring(k4, EdgeColoring(5, (1, 1, 2, 3, 2, 3)))


def test_constant_map_fails(model):
    constant = PColoring(15, (0,) * 15)
    assert not verify_h_coloring(model.graph, model.graph, constant)
    with pytest.raises(VerificationError):
        pullback(model.graph, constant)


def test_partial_map_rejected(model, q3):
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    phi = build_p_coloring(q3, c, allow_abnormal=True)
    with pytest.raises(ValueError):
        verify_h_coloring(q3, model.graph, phi)


def test_model_cycles_census(model):
    cycles = model_cycles()
    assert len(cycles) == 57  # 12 C5 + 10 C6 + 15 C8 + 20 C9
    by_len = {}
    for cyc in cycles:
        by_len[len(cyc)] = by_len.get(len(cyc), 0) + 1
        degs = {}
        for e in cyc:
            for v in model.graph.endpoints(e):
                degs[v] = degs.get(v, 0) + 1
        assert all(d == 2 for d in degs.values())
    assert by_len == {5: 12, 6: 10, 8: 15, 9: 20}


def test_parity_engine_cycles(model, petersen):
    witness = has_normal_k(petersen, 5)
    for cyc in model_cycles():
        assert all(d in (0, 2) for d in preimage_degrees(petersen, witness, cyc))


def test_star_bijection_law(model):
    # for a vertex x with only poor/rich incident edges, the map sends its
    # star bijectively onto the star of palette_index(S(x)); preimage degrees
    # under any F follow as |F ∩ star|
    for name in ("k33", "q3"):
        g = catalog(name)
        witness = has_normal_k(g, 5)
        phi = build_p_coloring(g, witness)
        for x in range(g.n):
            xp = model.palette_index[palette(g, witness, x)]
            image = {phi.phi[e] for e in g.incident(x)}
            assert image == set(model.graph.incident(xp))
        for w in range(10):
            star = frozenset(model.graph.incident(w))
            degrees = preimage_degrees(g, witness, star)
            for x in range(g.n):
                xp = model.palette_index[palette(g, witness, x)]
                assert degrees[x] == len(star & set(model.graph.incident(xp)))
                assert degrees[x] in (0, 1, 3)


def test_abnormal_coloring_breaks_parity(model, q3):
    # with the two-abnormal cube coloring some cycle preimage has a
    # degree-1 vertex, the parity obstruction in miniature
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    assert any(
        1 in preimage_degrees(q3, c, cyc) for cyc in model_cycles()
    )


def test_p_coloring_file_roundtrip(q3):
    witness = has_normal_k(q3, 5)
    phi = build_p_coloring(q3, witness)
    text = write_p_coloring(phi)
    again = read_p_coloring(text, q3.m)
    assert again == phi


def test_p_coloring_file_errors(q3):
    with pytest.raises(ParseError):
        read_p_coloring("0 1 2\n", q3.m)
    with pytest.raises(ParseError):
        read_p_coloring("0 99\n", q3.m)
    with pytest.raises(ParseError):
        read_p_coloring("0 1\n0 2\n", q3.m)
