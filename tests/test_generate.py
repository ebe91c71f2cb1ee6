from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import networkx as nx
import pytest

import normalcol
from normalcol.generate import _labeled_stream, enumerate_cubic
from normalcol.graphs import is_connected

# labeled connected cubic graph counts, cross-checked against the standard
# enumeration references
LABELED = {4: 1, 6: 70, 8: 19320}
# connected cubic graphs up to isomorphism, OEIS A002851
CLASSES = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_labeled_counts(n):
    assert sum(1 for _ in enumerate_cubic(n)) == LABELED[n]


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_distinct_counts(n):
    assert sum(1 for _ in enumerate_cubic(n, distinct=True)) == CLASSES[n]


def test_distinct_count_n14():
    assert sum(1 for _ in enumerate_cubic(14, distinct=True)) == CLASSES[14]


@pytest.mark.skipif(not os.environ.get("NORMALCOL_SLOW"), reason="about 5 s; set NORMALCOL_SLOW=1")
def test_distinct_count_n16():
    assert sum(1 for _ in enumerate_cubic(16, distinct=True)) == CLASSES[16]


# sha256 of repr(list(_labeled_stream(n, True))): the orderly stream's graphs,
# their labels and their order, taken before vertex 0's partners came from
# the first-touch rule alone
STREAM_SHA256 = {
    12: "8ab9d519d5773cfd36599530611678970cf5cf328ba75df6fd704540d8d4d1a9",
    14: "cf4d9ef4039a4c1412dbbb88df38111d7df9d01270649bf75e1391eac2cff978",
    16: "90a74db1d4e3486b2be46ae268dd4ec3d667dcb3796c4b6389865f73ebc2d0d5",
}


@pytest.mark.parametrize("n", [
    12,
    14,
    pytest.param(16, marks=pytest.mark.skipif(
        not os.environ.get("NORMALCOL_SLOW"), reason="about 5 s; set NORMALCOL_SLOW=1")),
])
def test_stream_pinned(n):
    blob = repr(list(_labeled_stream(n, True)))
    assert hashlib.sha256(blob.encode()).hexdigest() == STREAM_SHA256[n]


def _bfs_candidates(n: int):
    """The BFS-labeling stream without pruning: every connected cubic graph
    on n vertices labeled with N(0) = {1, 2, 3}, every later vertex with a
    smaller neighbor and first touches taking the smallest untouched label,
    in lexicographic order of the sorted edge lists."""
    deg = [0] * n
    adj = [0] * n
    edges: list[tuple[int, int]] = []

    def rec(prev_v: int, min_partner: int):
        v = next((i for i in range(n) if deg[i] < 3), -1)
        if v == -1:
            yield tuple(edges)
            return
        if v != prev_v:
            min_partner = v + 1
            if v > 0 and deg[v] == 0:
                return
        if v == 0:
            candidates = range(deg[0] + 1, deg[0] + 2)
        else:
            candidates = range(min_partner, n)
        fresh = next((w for w in range(v + 1, n) if deg[w] == 0), -1)
        for u in candidates:
            if deg[u] >= 3 or (adj[v] >> u) & 1:
                continue
            if deg[u] == 0 and u != fresh:
                continue
            deg[v] += 1
            deg[u] += 1
            adj[v] |= 1 << u
            adj[u] |= 1 << v
            edges.append((v, u))
            yield from rec(v, u + 1)
            edges.pop()
            deg[v] -= 1
            deg[u] -= 1
            adj[v] &= ~(1 << u)
            adj[u] &= ~(1 << v)

    yield from rec(-1, 1)


def _is_canonical(n: int, edges) -> bool:
    """Whether no BFS relabeling of the complete candidate has a smaller
    sorted edge list: the test of every candidate, one root and one order
    of each vertex's new children at a time.

    Segment i of a labeling lists the labels larger than i adjacent to
    label i, padded to three entries with n.  Unlabeled neighbors of label
    i receive the next free labels, so segment i is fixed before the order
    of those new children is chosen; the search branches over the orders
    only while the segments tie.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    segs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
        segs[u].append(v)
    target = [tuple(seg + [n] * (3 - len(seg))) for seg in segs]
    label = [-1] * n
    vertex = [0] * n

    def smaller(i: int, fresh: int) -> bool:
        if i == n:
            return False
        new = []
        seg = []
        for x in nbrs[vertex[i]]:
            lx = label[x]
            if lx < 0:
                new.append(x)
            elif lx > i:
                seg.append(lx)
        seg.sort()
        seg.extend(range(fresh, fresh + len(new)))
        seg.extend([n] * (3 - len(seg)))
        seg_t = tuple(seg)
        if seg_t != target[i]:
            return seg_t < target[i]
        for order in permutations(new):
            for k, x in enumerate(order):
                label[x] = fresh + k
                vertex[fresh + k] = x
            found = smaller(i + 1, fresh + len(new))
            for x in order:
                label[x] = -1
            if found:
                return True
        return False

    for root in range(n):
        label[root] = 0
        vertex[0] = root
        if smaller(0, 1):
            return False
        label[root] = -1
    return True


def _check_pruned_stream(n: int) -> None:
    oracle = [edges for edges in _bfs_candidates(n) if _is_canonical(n, edges)]
    # same representatives, labelled the same, in the same order
    assert [g.edges for g in enumerate_cubic(n, distinct=True)] == oracle
    assert len(oracle) == CLASSES[n]


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_pruned_stream_matches_complete_candidate_test(n):
    _check_pruned_stream(n)


@pytest.mark.skipif(not os.environ.get("NORMALCOL_SLOW"), reason="about 21 s; set NORMALCOL_SLOW=1")
def test_pruned_stream_matches_complete_candidate_test_n14():
    _check_pruned_stream(14)


def _trace_key(n: int, edges) -> tuple[int, ...]:
    """tr(A^3) .. tr(A^6): an isomorphism invariant that buckets candidates."""
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    power, key = adj, []
    for k in range(2, 7):
        power = [[sum(row[t] * adj[t][j] for t in range(n)) for j in range(n)] for row in power]
        if k >= 3:
            key.append(sum(power[i][i] for i in range(n)))
    return tuple(key)


def _reference_distinct(n: int):
    """Keep the first candidate of each class, telling classes apart with networkx."""
    seen: dict[tuple[int, ...], list[nx.Graph]] = {}
    for edges in _bfs_candidates(n):
        graph = nx.Graph(edges)
        bucket = seen.setdefault(_trace_key(n, edges), [])
        if not any(nx.is_isomorphic(graph, rep) for rep in bucket):
            bucket.append(graph)
            yield edges


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_distinct_matches_networkx_reference(n):
    # same representatives, labelled the same, in the same order
    assert [g.edges for g in enumerate_cubic(n, distinct=True)] == list(_reference_distinct(n))


def test_emitted_graphs_are_valid():
    for g in enumerate_cubic(6):
        assert g.n == 6
        assert len(set(g.edges)) == g.m
        assert is_connected(g)
        assert all(len(g.incidence[v]) == 3 for v in range(6))


def test_distinct_representatives_nonisomorphic():
    reps = list(enumerate_cubic(8, distinct=True))
    nxg = []
    for g in reps:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        nxg.append(h)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not nx.is_isomorphic(nxg[i], nxg[j])


def test_every_labeled_graph_matches_some_representative():
    reps = []
    for g in enumerate_cubic(6, distinct=True):
        h = nx.Graph()
        h.add_edges_from(g.edges)
        reps.append(h)
    for g in enumerate_cubic(6):
        h = nx.Graph()
        h.add_edges_from(g.edges)
        assert any(nx.is_isomorphic(h, rep) for rep in reps)


def test_bad_n_rejected():
    with pytest.raises(ValueError):
        list(enumerate_cubic(5))
    with pytest.raises(ValueError):
        list(enumerate_cubic(2))


def test_runtime_imports_neither_numpy_nor_networkx():
    src = str(Path(normalcol.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys, normalcol, normalcol.cli\n"
        "print(sorted(m for m in ('numpy', 'networkx') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
