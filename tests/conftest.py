from __future__ import annotations

import random

import pytest

from normalcol.graphs import CubicGraph, catalog


@pytest.fixture
def petersen() -> CubicGraph:
    return catalog("petersen")


@pytest.fixture
def k4() -> CubicGraph:
    return catalog("k4")


@pytest.fixture
def q3() -> CubicGraph:
    return catalog("q3")


@pytest.fixture
def k33() -> CubicGraph:
    return catalog("k33")


def bridged_multigraph() -> CubicGraph:
    """Two doubled-edge triangle blocks joined by a bridge."""
    return CubicGraph(
        6, ((0, 1), (0, 1), (0, 2), (1, 2), (2, 5), (3, 4), (3, 4), (3, 5), (4, 5))
    )


def triple_edge() -> CubicGraph:
    return CubicGraph(2, ((0, 1), (0, 1), (0, 1)))


def domino_multigraph() -> CubicGraph:
    return CubicGraph(4, ((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)))


def bridged_simple_10() -> CubicGraph:
    """Two K4-with-one-stub blocks joined by a single edge (10 vertices)."""
    block = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
    edges = list(block)
    edges.extend((u + 5, v + 5) for u, v in block)
    edges.append((4, 9))
    return CubicGraph(10, tuple(edges))


def random_cubic_multigraph(rng: random.Random, n: int) -> CubicGraph:
    """Configuration model: pair 3n stubs uniformly, redraw on a loop.
    Parallel edges and several components are kept."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = tuple((stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2))
        if all(u != v for u, v in edges):
            return CubicGraph(n, edges)


def disjoint_union(g: CubicGraph, h: CubicGraph) -> CubicGraph:
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    return CubicGraph(g.n + h.n, g.edges + shifted)


def random_bridged_multigraph(rng: random.Random, left: int, right: int) -> CubicGraph:
    """Two configuration-model blocks, one random edge of each subdivided,
    the two subdivision vertices joined by a bridge (minimum >= 2 at k = 5)."""
    edges: list[tuple[int, int]] = []
    hubs = []
    off = 0
    for nb in (left, right):
        block = list(random_cubic_multigraph(rng, nb).edges)
        a, b = block.pop(rng.randrange(len(block)))
        hub = off + nb
        edges += [(u + off, v + off) for u, v in block] + [(a + off, hub), (b + off, hub)]
        hubs.append(hub)
        off += nb + 1
    edges.append((hubs[0], hubs[1]))
    return CubicGraph(off, tuple(edges))


def random_bridge_tree(
    rng: random.Random, sizes: list[int], bridges: list[tuple[int, int]]
) -> CubicGraph:
    """Configuration-model blocks joined by bridges.  Block i has sizes[i]
    vertices; `bridges` lists (block, block) pairs forming a tree.  The
    bridge ends of a block go round the block's vertices in turn, each
    taking one stub (so a block of one vertex and three bridges is a vertex
    whose edges are all bridges); a block is redrawn on a loop.  Vertex
    labels and edge order are shuffled at the end."""
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    ends = [[] for _ in sizes]
    for b in bridges:
        for i in b:
            ends[i].append(offsets[i] + len(ends[i]) % sizes[i])
    edges: list[tuple[int, int]] = []
    for i, nb in enumerate(sizes):
        while True:
            stubs = [offsets[i] + v for v in range(nb) for _ in range(3)]
            for v in ends[i]:
                stubs.remove(v)
            rng.shuffle(stubs)
            block = [(stubs[j], stubs[j + 1]) for j in range(0, len(stubs), 2)]
            if all(u != v for u, v in block):
                break
        edges += block
    taken = [0] * len(sizes)
    for a, b in bridges:
        edges.append((ends[a][taken[a]], ends[b][taken[b]]))
        taken[a] += 1
        taken[b] += 1
    # shuffled labels and edge order, so no piece starts at its bridge end
    # or sees its bridge last by construction
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    rng.shuffle(edges)
    return CubicGraph(len(label), tuple((label[u], label[v]) for u, v in edges))


@pytest.fixture
def bridged() -> CubicGraph:
    return bridged_multigraph()
