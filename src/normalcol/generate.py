"""Enumeration of connected simple cubic graphs on labeled vertices.

The generator completes the smallest unsaturated vertex with partners in
increasing order, which produces every labeled graph exactly once, and in
lexicographic order of the sorted edge lists.  The distinct mode restricts
the stream to BFS labelings: N(0) = {1, 2, 3}, every later vertex has a
smaller neighbor, and a vertex touched for the first time takes the smallest
untouched label.  Every connected cubic graph has such labelings (one per
root and order of each vertex's new children), so each isomorphism class
appears in the stream at least once.

Duplicates are removed by an orderly test (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998): a candidate is emitted only when none of
its BFS relabelings has a lexicographically smaller sorted edge list.  The
candidates of one class are exactly the BFS labelings of any one of them, so
exactly one survives, the class minimum.  Because the stream is in
lexicographic order, that minimum is also the first candidate of its class,
so the representatives, their labels and their order are those of a filter
that keeps the first member of each class.  The test needs no memory across
candidates.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from .graphs import CubicGraph, is_connected


def _labeled_stream(n: int, constrained: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    deg = [0] * n
    adj = [0] * n  # neighbor bitmask; simple graphs only
    edges: list[tuple[int, int]] = []

    def rec(prev_v: int, min_partner: int) -> Iterator[tuple[tuple[int, int], ...]]:
        v = -1
        for i in range(n):
            if deg[i] < 3:
                v = i
                break
        if v == -1:
            yield tuple(edges)
            return
        if v != prev_v:
            min_partner = v + 1
            if constrained and v > 0 and deg[v] == 0:
                return  # partners are always larger; v could never reach a smaller vertex
        if constrained and v == 0:
            # force N(0) = {1, 2, 3}
            u = deg[0] + 1
            candidates = range(u, u + 1)
        else:
            candidates = range(min_partner, n)
        fresh = -1
        if constrained:
            for w in range(v + 1, n):
                if deg[w] == 0:
                    fresh = w
                    break
        for u in candidates:
            if deg[u] >= 3 or (adj[v] >> u) & 1:
                continue
            if constrained and deg[u] == 0 and u != fresh:
                continue  # BFS labeling: first touch goes to the smallest untouched label
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


def _is_canonical(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Whether no BFS relabeling of the graph has a smaller sorted edge list.

    `edges` is sorted with u < v in every pair.  Segment i of a labeling
    lists the labels larger than i adjacent to label i, padded to three
    entries with n: a shorter segment equal up to its end is followed by an
    edge of a later vertex, so it compares as larger.  Unlabeled neighbors
    of label i receive the next free labels, which exceed every label in
    use, so segment i is fixed before the order of those new children is
    chosen.  The search compares one segment at a time against the
    candidate's and branches over the children's orders only while equal.
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
        """Whether the labels fixed so far extend to a smaller edge list."""
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


def enumerate_cubic(n: int, distinct: bool = False) -> Iterator[CubicGraph]:
    """Stream of connected simple cubic graphs on n labeled vertices.

    With distinct=False every labeled graph appears exactly once.  With
    distinct=True one representative per isomorphism class is emitted: the
    BFS labeling with the lexicographically smallest sorted edge list.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("cubic graphs need an even vertex count of at least 4")
    if not distinct:
        for edges in _labeled_stream(n, constrained=False):
            graph = CubicGraph(n, edges)
            if is_connected(graph):
                yield graph
        return
    for edges in _labeled_stream(n, constrained=True):
        if _is_canonical(n, edges):
            yield CubicGraph(n, edges)
