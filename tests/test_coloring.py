from __future__ import annotations

import itertools

import pytest

from normalcol.coloring import (
    EdgeClass,
    EdgeColoring,
    abnormal_set,
    classify_all,
    classify_edge,
    is_normal,
    is_proper,
    palette,
    read_coloring,
    write_coloring,
)
from normalcol.constructions import Q3_TWO_ABNORMAL
from normalcol.errors import ImproperColoringError, ParseError
from normalcol.graphs import catalog
from normalcol.petersen import canonical_petersen

K4_PROPER = EdgeColoring(3, (1, 2, 3, 3, 2, 1))


def test_palette_k4(k4):
    for v in range(4):
        assert palette(k4, K4_PROPER, v) == frozenset({1, 2, 3})


def test_palette_set_semantics():
    # palettes are sets even when the coloring is improper
    g = catalog("k4")
    c = EdgeColoring(3, (1, 1, 2, 3, 2, 3))
    assert palette(g, c, 0) == frozenset({1, 2})


def test_palette_unknown_vertex(k4):
    with pytest.raises(ValueError):
        palette(k4, K4_PROPER, 9)


def test_is_proper(k4):
    assert is_proper(k4, K4_PROPER, 3)
    assert not is_proper(k4, EdgeColoring(3, (1, 1, 2, 3, 2, 3)), 3)
    kneser = canonical_petersen().ctilde
    assert is_proper(catalog("petersen"), kneser, 5)


def test_classify_poor_all_three_colorings(k4):
    assert all(cls is EdgeClass.POOR for cls in classify_all(k4, K4_PROPER))
    assert is_normal(k4, K4_PROPER)
    assert abnormal_set(k4, K4_PROPER) == frozenset()


def test_classify_rich_kneser(petersen):
    kneser = canonical_petersen().ctilde
    assert all(cls is EdgeClass.RICH for cls in classify_all(petersen, kneser))
    assert abnormal_set(petersen, kneser) == frozenset()
    assert is_normal(petersen, kneser)
    # vertex {1,2} is vertex 0; its palette is the complement
    assert palette(petersen, kneser, 0) == frozenset({3, 4, 5})


def test_classify_abnormal_shape(q3):
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    bad = abnormal_set(q3, c)
    assert len(bad) == 2
    for eid in bad:
        u, v = q3.endpoints(eid)
        s_u, s_v = palette(q3, c, u), palette(q3, c, v)
        assert len(s_u | s_v) == 4
        # abnormal means the palettes share exactly c(e) and one more color
        assert len(s_u & s_v) == 2 and c.colors[eid] in (s_u & s_v)
    assert not is_normal(q3, c)


def test_canonical_abnormal_instance(q3):
    # an edge with palettes exactly {1,2,3} and {1,2,4} is abnormal
    from normalcol.constructions import _normalizing_permutation

    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    eid = min(abnormal_set(q3, c))
    normalized = c.permuted(_normalizing_permutation(q3, c, eid))
    u, v = q3.endpoints(eid)
    assert normalized.colors[eid] == 1
    assert palette(q3, normalized, u) == frozenset({1, 2, 3})
    assert palette(q3, normalized, v) == frozenset({1, 2, 4})
    assert classify_edge(q3, normalized, eid) is EdgeClass.ABNORMAL


def test_classify_rejects_improper(k4):
    with pytest.raises(ImproperColoringError):
        classify_edge(k4, EdgeColoring(3, (1, 1, 2, 3, 2, 3)), 0)
    with pytest.raises(ImproperColoringError):
        abnormal_set(k4, EdgeColoring(3, (1, 1, 2, 3, 2, 3)))


def test_union_sizes_in_345(q3, petersen):
    for g, c in ((q3, EdgeColoring(5, Q3_TWO_ABNORMAL)), (petersen, canonical_petersen().ctilde)):
        for u, v in g.edges:
            assert len(palette(g, c, u) | palette(g, c, v)) in (3, 4, 5)


def test_classification_color_permutation_invariant(q3):
    c = EdgeColoring(5, Q3_TWO_ABNORMAL)
    base = classify_all(q3, c)
    for perm in itertools.islice(itertools.permutations(range(1, 6)), 0, 120, 17):
        mapping = dict(zip(range(1, 6), perm))
        assert classify_all(q3, c.permuted(mapping)) == base


def test_rich_iff_singleton_intersection(petersen, q3):
    for g, c in ((petersen, canonical_petersen().ctilde), (q3, EdgeColoring(5, Q3_TWO_ABNORMAL))):
        classes = classify_all(g, c)
        for eid, (u, v) in enumerate(g.edges):
            inter = palette(g, c, u) & palette(g, c, v)
            assert (classes[eid] is EdgeClass.RICH) == (len(inter) == 1)
            if classes[eid] is EdgeClass.RICH:
                assert inter == {c.colors[eid]}


def test_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(3, (1, 2, 4, 3, 2, 1))
    with pytest.raises(ValueError):
        EdgeColoring(3, (0, 2, 3, 3, 2, 1))


def test_coloring_file_roundtrip(petersen):
    kneser = canonical_petersen().ctilde
    text = write_coloring(kneser)
    assert text.splitlines()[0] == "5"
    again = read_coloring(text, petersen.m)
    assert again == kneser


def test_coloring_file_errors():
    with pytest.raises(ParseError):
        read_coloring("", 3)
    with pytest.raises(ParseError):
        read_coloring("5\n0 1\n0 2\n", 2)
    with pytest.raises(ParseError):
        read_coloring("5\n0 1\n", 2)
    with pytest.raises(ParseError):
        read_coloring("x\n", 1)
