from __future__ import annotations

import itertools
import random
import time

import pytest

from normalcol.coloring import (
    EdgeClass,
    EdgeColoring,
    abnormal_set,
    classify_all,
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
        u, v = q3.edges[eid]
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
    u, v = q3.edges[eid]
    assert normalized.colors[eid] == 1
    assert palette(q3, normalized, u) == frozenset({1, 2, 3})
    assert palette(q3, normalized, v) == frozenset({1, 2, 4})
    assert classify_all(q3, normalized)[eid] is EdgeClass.ABNORMAL


def test_classify_rejects_improper(k4):
    with pytest.raises(ImproperColoringError):
        classify_all(k4, EdgeColoring(3, (1, 1, 2, 3, 2, 3)))[0]
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
    again = read_coloring(text)
    assert again == kneser
    assert len(again.colors) == petersen.m


def test_coloring_file_errors():
    with pytest.raises(ParseError):
        read_coloring("")
    with pytest.raises(ParseError):
        read_coloring("5\n0 1\n0 2\n")
    with pytest.raises(ParseError):
        read_coloring("5\n0 1\n2 2\n")  # a gap: no edge 1
    with pytest.raises(ParseError):
        read_coloring("x\n")
    for header in ("0", "-2"):  # the color count must be positive
        with pytest.raises(ParseError, match="not a positive color count"):
            read_coloring(f"{header}\n")
    with pytest.raises(ParseError, match="color 5 outside 1..3"):
        read_coloring("3\n0 5\n")
    # a file's length is checked where it meets a graph
    short = read_coloring("3\n0 1\n1 2\n2 3\n")
    for check in (is_proper, classify_all, abnormal_set):
        with pytest.raises(ValueError, match="covers 3 edges, graph has 6"):
            check(catalog("k4"), short)


def _malformed_coloring(rng: random.Random) -> str:
    """A coloring text that is malformed by construction."""
    m = rng.randrange(2, 40)
    lines = write_coloring(EdgeColoring(5, [rng.randint(1, 5) for _ in range(m)])).splitlines()
    i = rng.randrange(1, len(lines))
    kind = rng.randrange(7)
    if kind == 0:  # a broken header
        lines[0] = rng.choice(["x", "5 5", "1.5", "-", "0x5"])
    elif kind == 1:  # an edge line with a token too few or too many
        lines[i] = rng.choice([lines[i].split()[0], lines[i] + " 1", lines[i] + " 1 2"])
    elif kind == 2:  # a token that is not an integer
        parts = lines[i].split()
        parts[rng.randrange(2)] = rng.choice(["x", "1.5", "--", "0x3", "1e2"])
        lines[i] = " ".join(parts)
    elif kind == 3:  # an edge id repeated
        lines.append(f"{rng.randrange(m)} {rng.randint(1, 5)}")
    elif kind == 4:  # a color count below 1, with or without edge lines
        lines[0] = rng.choice(["0", "-2", "-5"])
        if rng.random() < 0.5:
            del lines[1:]
    elif kind == 5:  # a color outside 1..k
        lines[i] = f"{i - 1} {rng.choice([0, -1, 6, 99])}"
    elif rng.random() < 0.5:  # an edge id missing: a line before the last dropped
        del lines[rng.randrange(1, len(lines) - 1)]
    else:  # ... or the last id moved out of range
        lines[-1] = f"{m + rng.randrange(5)} 1"
    return "\n".join(lines) + "\n"


def test_fuzz_malformed_coloring_raises_parse_error():
    rng = random.Random(20210421)
    messages = set()
    ranges = set()
    for _ in range(2000):
        with pytest.raises(ParseError) as info:
            read_coloring(_malformed_coloring(rng))
        # the cause tells the two "bad coloring line" raises apart
        messages.add((str(info.value).startswith("bad coloring line"), type(info.value.__cause__)))
        ranges.update(w for w in ("positive color count", "outside 1..") if w in str(info.value))
    assert {(True, type(None)), (True, ValueError)} <= messages
    assert ranges == {"positive color count", "outside 1.."}


def test_classification_cost_ignores_color_values(petersen):
    # classes depend only on which colors are equal, so colors near 10^9
    # cost what colors 1..5 cost (one bit per raw color value would make
    # each palette mask 125 MB)
    kneser = canonical_petersen().ctilde
    shift = 10**9
    shifted = EdgeColoring(kneser.k + shift, tuple(c + shift for c in kneser.colors))
    start = time.perf_counter()
    assert is_proper(petersen, shifted)
    assert not is_proper(petersen, shifted, 5)
    assert classify_all(petersen, shifted) == classify_all(petersen, kneser)
    assert classify_all(petersen, shifted)[0] is EdgeClass.RICH
    assert time.perf_counter() - start < 0.5
