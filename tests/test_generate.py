from __future__ import annotations

import os
import subprocess
import sys
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
CLASSES = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_labeled_counts(n):
    assert sum(1 for _ in enumerate_cubic(n)) == LABELED[n]


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_distinct_counts(n):
    assert sum(1 for _ in enumerate_cubic(n, distinct=True)) == CLASSES[n]


@pytest.mark.skipif(not os.environ.get("NORMALCOL_SLOW"), reason="about 15 s; set NORMALCOL_SLOW=1")
def test_distinct_count_n14():
    assert sum(1 for _ in enumerate_cubic(14, distinct=True)) == CLASSES[14]


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
    for edges in _labeled_stream(n, constrained=True):
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
        assert g.is_simple()
        assert is_connected(g)
        assert all(len(g.incident(v)) == 3 for v in range(6))


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
