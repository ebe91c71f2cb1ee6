from __future__ import annotations

import random
from itertools import combinations

import pytest

from normalcol.coloring import EdgeColoring, abnormal_set, is_proper, palette
from normalcol.constructions import DEMO_VARIANTS, Q3_TWO_ABNORMAL, composite_graph
from normalcol.errors import ImproperColoringError, VerificationError
from normalcol.graphs import catalog
from normalcol.petersen import (
    build_p_coloring,
    canonical_petersen,
    model_cycles,
    preimage_degrees,
    pullback,
    verify_h_coloring,
    write_p_coloring,
)
from normalcol.generate import enumerate_cubic
from normalcol.graphs import connectivity_report
from normalcol.solver import SearchConfig, has_normal_k, min_abnormal

from conftest import random_bridged_multigraph, random_cubic_multigraph, three_cut_corpus

K4_PROPER = EdgeColoring(3, (1, 2, 3, 3, 2, 1))
FULL = frozenset(range(1, 6))


@pytest.fixture(scope="module")
def model():
    return canonical_petersen()


def model_vertex(model, pal):
    """The model vertex whose palette is pal, found by scanning the model."""
    (w,) = [w for w in range(10) if palette(model.graph, model.ctilde, w) == pal]
    return w


def reference_map(graph, coloring):
    """The two-rule map, written from the Kneser labels alone: the vertex
    with palette S carries the label FULL - S, and a model edge's color is
    the one element outside both end labels.  Abnormal edges map to -1."""
    model = canonical_petersen()
    vertex_of = {FULL - label: w for w, label in enumerate(model.labels)}

    def label_color(eid):
        a, b = model.graph.edges[eid]
        (c,) = FULL - model.labels[a] - model.labels[b]
        return c

    phi = []
    for eid, (u, v) in enumerate(graph.edges):
        su, sv = palette(graph, coloring, u), palette(graph, coloring, v)
        x, y = vertex_of[su], vertex_of[sv]
        if su == sv:  # poor: the edge of color c(uv) at the vertex with palette S(u)
            c = coloring.colors[eid]
            (image,) = [e for e in model.graph.incidence[x] if label_color(e) == c]
        elif su | sv == FULL:  # rich: the edge joining the two palettes' vertices
            (image,) = set(model.graph.incidence[x]) & set(model.graph.incidence[y])
        else:
            image = -1
        phi.append(image)
    return tuple(phi)


def random_proper_coloring(rng, graph):
    """Greedy in random edge order with random free colors: an edge meets at
    most four others, so five colors always leave one free."""
    colors = [0] * graph.m
    for eid in rng.sample(range(graph.m), graph.m):
        taken = {colors[f] for w in graph.edges[eid] for f in graph.incidence[w]}
        colors[eid] = rng.choice(sorted(set(range(1, 6)) - taken))
    return EdgeColoring(5, tuple(colors))


def test_model_invariants(model):
    model.validate()
    # vertex 0 carries label {1,2}; its palette is the complement
    assert model.labels[0] == frozenset({1, 2})
    assert palette(model.graph, model.ctilde, 0) == frozenset({3, 4, 5})
    # the edge joining {1,2} and {3,4} is colored 5
    i = model.labels.index(frozenset({1, 2}))
    j = model.labels.index(frozenset({3, 4}))
    eid = (set(model.graph.incidence[i]) & set(model.graph.incidence[j])).pop()
    assert model.ctilde.colors[eid] == 5
    # edge_at names, for each vertex palette and color in it, the edge of
    # that color at the vertex with that palette: 30 keys, each edge twice
    assert len(model.edge_at) == 30
    for v in range(10):
        pal = palette(model.graph, model.ctilde, v)
        for eid in model.graph.incidence[v]:
            assert model.edge_at[(pal, model.ctilde.colors[eid])] == eid
    # rich-rule instance: palettes {1,2,3} and {3,4,5} meet at the edge
    # joining {4,5} and {1,2}, whose model color is their intersection 3
    x = model_vertex(model, frozenset({1, 2, 3}))
    y = model_vertex(model, frozenset({3, 4, 5}))
    assert (model.labels[x], model.labels[y]) == (frozenset({4, 5}), frozenset({1, 2}))
    shared = (set(model.graph.incidence[x]) & set(model.graph.incidence[y])).pop()
    assert model.ctilde.colors[shared] == 3
    # and the one rule reaches it from either palette
    assert model.edge_at[(frozenset({1, 2, 3}), 3)] == shared
    assert model.edge_at[(frozenset({3, 4, 5}), 3)] == shared


def test_identity_map_on_model(model):
    phi = build_p_coloring(model.graph, model.ctilde)
    assert -1 not in phi
    assert phi == tuple(range(15))
    assert verify_h_coloring(model.graph, model.graph, phi)
    assert pullback(model.graph, phi) == model.ctilde


def test_poor_rule_k4(model, k4):
    phi = build_p_coloring(k4, K4_PROPER)
    assert -1 not in phi
    # all palettes are {1,2,3}, so every edge maps into the star of the
    # vertex labeled {4,5}
    target = model_vertex(model, frozenset({1, 2, 3}))
    assert model.labels[target] == frozenset({4, 5})
    star = set(model.graph.incidence[target])
    assert set(phi) <= star
    # the poor rule picks the edge at that star carrying the same color
    for eid in range(k4.m):
        assert model.ctilde.colors[phi[eid]] == K4_PROPER.colors[eid]
    assert verify_h_coloring(k4, model.graph, phi)
    assert pullback(k4, phi) == EdgeColoring(5, K4_PROPER.colors)


def test_rich_rule_color_matches(model):
    # on the model coloring every edge is rich and maps to itself, which
    # checks the rich rule's color agreement edge by edge
    phi = build_p_coloring(model.graph, model.ctilde)
    for eid in range(15):
        assert model.ctilde.colors[phi[eid]] == model.ctilde.colors[eid]


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
    assert len(witnesses) >= 40 and any(len(set(g.edges)) < g.m for g, _ in witnesses)
    for g, witness in witnesses:
        phi = build_p_coloring(g, witness)
        assert verify_h_coloring(g, model.graph, phi)
        assert pullback(g, phi) == witness


def test_abnormal_edges_excluded(q3):
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    with pytest.raises(ImproperColoringError):
        build_p_coloring(q3, c, allow_abnormal=False)
    phi = build_p_coloring(q3, c, allow_abnormal=True)
    domain = frozenset(e for e, image in enumerate(phi) if image >= 0)
    assert domain == frozenset(range(q3.m)) - abnormal_set(q3, c)


def test_improper_rejected(k4):
    with pytest.raises(ImproperColoringError):
        build_p_coloring(k4, EdgeColoring(5, (1, 1, 2, 3, 2, 3)))


def test_constant_map_fails(model):
    constant = (0,) * 15
    assert not verify_h_coloring(model.graph, model.graph, constant)
    with pytest.raises(VerificationError):
        pullback(model.graph, constant)


def test_partial_map_rejected(model, q3):
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    phi = build_p_coloring(q3, c, allow_abnormal=True)
    with pytest.raises(ValueError):
        verify_h_coloring(q3, model.graph, phi)
    with pytest.raises(ValueError, match="map size does not match"):
        verify_h_coloring(q3, model.graph, phi[:-1])


def _brute_force_cycles(model):
    """Every simple cycle of the model, in the order of their edge bitmasks:
    all 2^15 edge subsets are scanned for connected 2-regular subgraphs."""
    graph = model.graph
    cycles = []
    for mask in range(1, 1 << graph.m):
        edges = [e for e in range(graph.m) if (mask >> e) & 1]
        deg: dict[int, int] = {}
        for e in edges:
            u, v = graph.edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        # connected check over touched vertices
        verts = set(deg)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        adj: dict[int, list[int]] = {v: [] for v in verts}
        for e in edges:
            u, v = graph.edges[e]
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen == verts:
            cycles.append(frozenset(edges))
    return tuple(cycles)


def test_model_cycles_census(model):
    cycles = model_cycles()
    assert cycles == _brute_force_cycles(model)
    assert len(cycles) == 57  # 12 C5 + 10 C6 + 15 C8 + 20 C9
    assert len(set(cycles)) == 57
    by_len = {}
    for cyc in cycles:
        by_len[len(cyc)] = by_len.get(len(cyc), 0) + 1
        degs = {}
        for e in cyc:
            for v in model.graph.edges[e]:
                degs[v] = degs.get(v, 0) + 1
        assert all(d == 2 for d in degs.values())
    assert by_len == {5: 12, 6: 10, 8: 15, 9: 20}


def test_parity_engine_cycles(model, petersen):
    witness = has_normal_k(petersen, 5)
    for cyc in model_cycles():
        assert all(d in (0, 2) for d in preimage_degrees(petersen, witness, cyc))


def test_star_bijection_law(model):
    # for a vertex x with only poor/rich incident edges, the map sends its
    # star bijectively onto the star of the model vertex with palette S(x),
    # which is also edge_at's image of S(x) and its colors; preimage degrees
    # under any F follow as |F ∩ star|
    for name in ("k33", "q3"):
        g = catalog(name)
        witness = has_normal_k(g, 5)
        phi = build_p_coloring(g, witness)
        for x in range(g.n):
            pal = palette(g, witness, x)
            xp = model_vertex(model, pal)
            image = {phi[e] for e in g.incidence[x]}
            assert image == set(model.graph.incidence[xp])
            assert image == {model.edge_at[(pal, c)] for c in pal}
        for w in range(10):
            star = frozenset(model.graph.incidence[w])
            degrees = preimage_degrees(g, witness, star)
            for x in range(g.n):
                xp = model_vertex(model, palette(g, witness, x))
                assert degrees[x] == len(star & set(model.graph.incidence[xp]))
                assert degrees[x] in (0, 1, 3)


def test_abnormal_coloring_breaks_parity(model, q3):
    # with the two-abnormal cube coloring some cycle preimage has a
    # degree-1 vertex, the parity obstruction in miniature
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    assert any(
        1 in preimage_degrees(q3, c, cyc) for cyc in model_cycles()
    )


def test_p_coloring_file_roundtrip(q3):
    # one "eid p" line per mapped edge, in edge order; abnormal edges are
    # left out, and a map with no entries is a lone newline
    def parse(text, num_edges):
        phi = [-1] * num_edges
        for line in text.splitlines():
            eid, image = map(int, line.split())
            phi[eid] = image
        return tuple(phi)

    witness = has_normal_k(q3, 5)
    phi = build_p_coloring(q3, witness)
    text = write_p_coloring(phi)
    assert text.endswith("\n") and len(text.splitlines()) == q3.m
    assert parse(text, q3.m) == phi
    partial = build_p_coloring(q3, EdgeColoring(5, Q3_TWO_ABNORMAL), allow_abnormal=True)
    text = write_p_coloring(partial)
    assert [int(line.split()[0]) for line in text.splitlines()] == [
        e for e in range(q3.m) if e not in abnormal_set(q3, EdgeColoring(5, Q3_TWO_ABNORMAL))
    ]
    assert parse(text, q3.m) == partial
    assert write_p_coloring(()) == "\n"
    assert write_p_coloring((-1, -1)) == "\n"


def test_one_rule_matches_two_rule_reference(model):
    # every class with n <= 10 (bridged ones included) and seeded
    # multigraphs, bridged multigraphs among them; each graph's min_abnormal
    # witness under a random permutation of 1..5, plus two random proper
    # 5-colorings, which carry many abnormal edges
    rng = random.Random(20218)
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n, distinct=True)]
    for n in (2, 4, 6, 8, 10, 12) * 6:
        graphs.append(random_cubic_multigraph(rng, n))
    for left, right in ((2, 2), (2, 4), (4, 4), (4, 6)):
        graphs.append(random_bridged_multigraph(rng, left, right))
    colorings = [(catalog("q3"), EdgeColoring(5, Q3_TWO_ABNORMAL))]
    witnesses_with_abnormal = 0
    for g in graphs:
        result = min_abnormal(g)
        witnesses_with_abnormal += result.best_count > 0
        perm = dict(zip(range(1, 6), rng.sample(range(1, 6), 5)))
        colorings.append((g, result.witness.permuted(perm)))
        colorings += [(g, random_proper_coloring(rng, g)) for _ in range(2)]
    abnormal_edges = 0
    for g, c in colorings:
        assert is_proper(g, c, 5)
        phi = build_p_coloring(g, c, allow_abnormal=True)
        assert phi == reference_map(g, c)
        bad = abnormal_set(g, c)
        assert frozenset(e for e, image in enumerate(phi) if image == -1) == bad
        if bad:
            with pytest.raises(ImproperColoringError):
                build_p_coloring(g, c)
        else:
            assert build_p_coloring(g, c) == phi
        abnormal_edges += len(bad)
    assert len(colorings) == 1 + 3 * len(graphs)
    assert witnesses_with_abnormal >= 5 and abnormal_edges >= 500


def _model_matchings(model):
    """The model's perfect matchings: every 5-edge set that covers each of
    the 10 vertices once, by brute force over all 3,003 of them."""
    ends = model.graph.edges
    return [
        frozenset(chosen)
        for chosen in combinations(range(model.graph.m), 5)
        if len({x for e in chosen for x in ends[e]}) == 10
    ]


def test_cut_space_parity_lemma(model):
    # the fact behind the solver's parity cut, checked on the model and
    # through build_p_coloring rather than through the cut: a model star is
    # a cut, so a normal coloring sends the boundary of any vertex set X to
    # model edges whose classes (sets of fundamental cycles) XOR to 0
    from normalcol.solver import _classes

    cycles = model.graph._cut_space[1]
    table = _classes()
    keys = {(sum(1 << (x - 1) for x in pal) << 3 | c): e for (pal, c), e in model.edge_at.items()}
    assert all(table[key] == cycles[e] for key, e in keys.items())
    assert all(not bits for key, bits in enumerate(table) if key not in keys)
    assert len(set(cycles)) == 15 and 0 not in cycles
    for w in range(10):
        a, b, c = (cycles[e] for e in model.graph.incidence[w])
        assert a ^ b ^ c == 0

    # the old matching parity follows: over every model edge set F whose
    # classes XOR to 0 (a cut), the masks of the six perfect matchings XOR
    # to 63 when |F| is odd, so the cut prunes wherever the matchings did
    matchings = _model_matchings(model)
    assert len(matchings) == 6
    mask = [sum(1 << i for i, mt in enumerate(matchings) if e in mt) for e in range(15)]
    by_classes, by_masks = [0] * (1 << 15), [0] * (1 << 15)
    cuts = 1
    for edges in range(1, 1 << 15):
        low = edges & -edges
        e = low.bit_length() - 1
        by_classes[edges] = by_classes[edges ^ low] ^ cycles[e]
        by_masks[edges] = by_masks[edges ^ low] ^ mask[e]
        if not by_classes[edges]:
            cuts += 1
            assert by_masks[edges] == (63 if edges.bit_count() & 1 else 0)
    assert cuts == 1 << 9  # one cut per vertex set, up to complement

    petersen = catalog("petersen")
    graphs = [g for n in range(4, 11, 2) for g in enumerate_cubic(n, distinct=True)]
    graphs += [composite_graph(petersen, v, t) for v in DEMO_VARIANTS for t in (2, 3)]
    rng = random.Random(19)
    checked = 0
    for graph in graphs:
        witness = min_abnormal(graph, SearchConfig(abnormal_budget=0)).witness
        if witness is None:  # the bridged class at n = 10 has no normal coloring
            continue
        phi = build_p_coloring(graph, witness)
        for _ in range(40):
            inside = [rng.random() < 0.5 for _ in range(graph.n)]
            boundary = 0
            for e, (u, v) in enumerate(graph.edges):
                if inside[u] != inside[v]:
                    boundary ^= cycles[phi[e]]
            assert boundary == 0
            checked += 1
    assert checked == 40 * (26 + 8)


def test_three_cut_lemma(model):
    # the fact behind the solver's 3-edge-cut check, checked through
    # build_p_coloring rather than through the check: a normal coloring
    # sends the three edges of every listed 3-edge cut onto one model star
    ends = model.graph.edges
    checked = 0
    for graph in three_cut_corpus():
        witness = min_abnormal(graph, SearchConfig(abnormal_budget=0)).witness
        if witness is None or not graph._three_cuts:
            continue
        phi = build_p_coloring(graph, witness)
        for cut in graph._three_cuts:
            images = {phi[e] for e in cut}
            assert len(images) == 3, cut
            (centre,) = set.intersection(*(set(ends[x]) for x in images))
            assert images == set(model.graph.incidence[centre])
            checked += 1
    assert checked == 266
