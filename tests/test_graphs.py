from __future__ import annotations

import pytest

from normalcol.errors import DegreeError, LoopError
from normalcol.graphs import (
    CubicGraph,
    catalog,
    connectivity_report,
    is_connected,
    remove_and_mark,
)

from conftest import bridged_multigraph, bridged_simple_10


def test_cubic_invariants_petersen(petersen):
    assert petersen.n == 10
    assert petersen.m == 15
    assert sum(len(petersen.incident(v)) for v in range(10)) == 2 * petersen.m
    assert all(len(petersen.incident(v)) == 3 for v in range(10))


def test_loop_rejected():
    with pytest.raises(LoopError):
        CubicGraph(2, ((0, 0), (0, 1), (0, 1), (1, 1)))


def test_degree_error():
    with pytest.raises(DegreeError):
        CubicGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


def test_parallel_edges_allowed():
    g = bridged_multigraph()
    assert g.has_parallel_edges()
    assert not g.is_simple()
    assert catalog("k4").is_simple()


def test_endpoints_normalized():
    g = CubicGraph(2, ((1, 0), (0, 1), (1, 0)))
    assert g.edges == ((0, 1), (0, 1), (0, 1))


def test_catalog_entries():
    q3 = catalog("q3")
    assert (q3.n, q3.m) == (8, 12)
    k33 = catalog("k33")
    assert (k33.n, k33.m) == (6, 9)
    prism = catalog("prism", 6)
    assert (prism.n, prism.m) == (12, 18)
    assert connectivity_report(prism).edge_connectivity == 3


def test_catalog_rejects():
    with pytest.raises(ValueError):
        catalog("nosuch")
    with pytest.raises(ValueError):
        catalog("prism", 5)


def test_remove_edge_stubs(k4):
    marked = remove_and_mark(k4, edges=(0,))
    assert marked.stubs == ((0, 0), (1, 0))
    assert marked.degree(0) == 2 and marked.degree(1) == 2


def test_remove_two_independent_edges(petersen):
    # edges 0 and 3 of the catalog Petersen graph are independent
    e1, e2 = 0, 3
    assert not set(petersen.endpoints(e1)) & set(petersen.endpoints(e2))
    marked = remove_and_mark(petersen, edges=(e2, e1))
    assert len(marked.stubs) == 4
    assert len({v for v, _ in marked.stubs}) == 4
    # deterministic order: by removed edge id, then endpoint
    assert [eid for _, eid in marked.stubs] == [e1, e1, e2, e2]


def test_remove_vertex(petersen):
    marked = remove_and_mark(petersen, vertex=0)
    neighbors = sorted(petersen.other_end(e, 0) for e in petersen.incident(0))
    assert sorted(v for v, _ in marked.stubs) == neighbors
    assert len(marked.stubs) == 3
    assert marked.vertices() == tuple(range(1, 10))


def test_remove_and_mark_rejects(petersen):
    with pytest.raises(ValueError):
        remove_and_mark(petersen, edges=(99,))
    with pytest.raises(ValueError):
        remove_and_mark(petersen, vertex=77)
    with pytest.raises(ValueError):
        remove_and_mark(petersen, edges=(1, 1))
    with pytest.raises(ValueError):
        remove_and_mark(petersen, edges=(1,), vertex=2)


@pytest.mark.parametrize("name,eids", [("k4", (0,)), ("petersen", (0, 3)), ("q3", (2, 5))])
def test_stub_rejoin_reconstructs_cubic(name, eids):
    g = catalog(name)
    marked = remove_and_mark(g, edges=eids)
    kept = [g.endpoints(e) for e in marked.live_edges()]
    stubs = [v for v, _ in marked.stubs]
    for i in range(0, len(stubs), 2):
        kept.append((stubs[i], stubs[i + 1]))
    rebuilt = CubicGraph(g.n, tuple(kept))  # degree invariant re-checked here
    assert rebuilt.m == g.m


def test_connectivity_petersen(petersen):
    rep = connectivity_report(petersen)
    assert rep.bridgeless
    assert rep.edge_connectivity == 3
    assert rep.cyclically_4_edge_connected


def test_connectivity_bridge():
    rep = connectivity_report(bridged_simple_10())
    assert not rep.bridgeless
    assert rep.edge_connectivity == 1
    rep2 = connectivity_report(bridged_multigraph())
    assert not rep2.bridgeless


def test_connectivity_q3_cyc4(q3):
    assert connectivity_report(q3).cyclically_4_edge_connected


def test_prism3_not_cyc4():
    # the three rungs separate the two triangles
    prism = CubicGraph(
        6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5))
    )
    rep = connectivity_report(prism)
    assert rep.bridgeless
    assert not rep.cyclically_4_edge_connected


def test_connected(petersen):
    assert is_connected(petersen)
    two = CubicGraph(8, tuple((u, v) for u, v in catalog("k4").edges)
                     + tuple((u + 4, v + 4) for u, v in catalog("k4").edges))
    assert not is_connected(two)
    assert connectivity_report(two).edge_connectivity == 0


@pytest.mark.parametrize(
    "graph",
    [catalog("k4"), catalog("petersen"), catalog("q3"), catalog("k33"),
     catalog("prism", 4), bridged_multigraph(), bridged_simple_10()],
    ids=["k4", "petersen", "q3", "k33", "prism4", "bridged-multi", "bridged-10"],
)
def test_connectivity_against_networkx(graph):
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    rep = connectivity_report(graph)
    assert rep.edge_connectivity == min(nx.edge_connectivity(g), 4)
    # all parametrized inputs are connected, where bridgeless <=> lambda >= 2
    assert rep.bridgeless == (nx.edge_connectivity(g) >= 2)
