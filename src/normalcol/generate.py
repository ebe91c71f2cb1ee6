"""Enumeration of connected simple cubic graphs, one per isomorphism class.

The generator completes the smallest unsaturated vertex with partners in
increasing order, so the candidates come in lexicographic order of their
sorted edge lists.  The candidates are the BFS labelings: every vertex after
0 has a smaller neighbor, and a vertex touched for the first time takes the
smallest untouched label, so N(0) = {1, 2, 3} and every candidate is
connected.  Every connected cubic graph has such labelings (one per root and
order of each vertex's new children), so each isomorphism class appears
among the candidates at least once.

Duplicates are removed by an orderly test (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998): a candidate is emitted only when none of
its BFS relabelings has a lexicographically smaller sorted edge list.  The
candidates of one class are exactly the BFS labelings of any one of them, so
exactly one survives, the class minimum.  Because the stream is in
lexicographic order, that minimum is also the first candidate of its class,
so the representatives, their labels and their order are those of a filter
that keeps the first member of each class.  The test needs no memory across
candidates.

Relabelings are compared one segment at a time: segment i of a labeling
lists the labels larger than i adjacent to label i, padded to three entries
with n, and the sorted edge lists compare as the sequences of segments do.
A BFS relabeling is built label by label; the unlabeled neighbors of label i
take the next free labels, so segment i is fixed before the order of those
new children is chosen, and the search branches over the orders only while
the segments tie.

The test runs on partial candidates, while the stream builds them.  When the
current vertex moves on to v, vertices 0..v-1 are saturated and the
candidate's segments 0..v-1 are final.  A relabeling whose labels 0..i went
to saturated vertices has segments 0..i that no completion changes.  If it
is smaller than the candidate on them, no completion is canonical and the
subtree is pruned; if it is larger, it is dropped, since no completion makes
it smaller.  The rest are carried down the recursion as pending relabelings
(labels, vertex by label, next segment, next free label): those that tie up
to v and those waiting on an unsaturated vertex.  The stream starts with one
per root, and at a complete candidate (v = n) the same extension is the full
test.  Pruning removes only subtrees without a canonical candidate and the
leaf test is unchanged, so the emitted graphs, their labels and their order
are those of the test on every complete candidate.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from .graphs import CubicGraph


def _orderly_stream(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    deg = [0] * n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    # the candidate's final segments, padded with n
    target: list[list[int]] = []

    def extend(label: list[int], vertex: list[int], i: int, fresh: int, v: int,
               out: list[tuple]) -> bool:
        """Extend one relabeling over the candidate's final segments i..v-1.

        Returns True when it comes out smaller.  Otherwise the survivors
        that tie up to v, or wait on an unsaturated vertex, go to `out`;
        those that come out larger are dropped.  `label` and `vertex` are
        the caller's copies and are written in place.
        """
        while i < v:
            x = vertex[i]
            if deg[x] < 3:
                break
            seg = []
            new = []
            for y in nbrs[x]:
                ly = label[y]
                if ly < 0:
                    new.append(y)
                elif ly > i:
                    seg.append(ly)
            seg.sort()
            seg.extend(range(fresh, fresh + len(new)))
            seg.extend([n] * (3 - len(seg)))
            if seg != target[i]:
                return seg < target[i]
            if len(new) > 1:
                for order in permutations(new):
                    lab, vert = label[:], vertex[:]
                    for k, y in enumerate(order):
                        lab[y] = fresh + k
                        vert[fresh + k] = y
                    if extend(lab, vert, i + 1, fresh + len(new), v, out):
                        return True
                return False
            if new:
                label[new[0]] = fresh
                vertex[fresh] = new[0]
                fresh += 1
            i += 1
        out.append((label, vertex, i, fresh))
        return False

    def advance(pending: list[tuple], v: int) -> list[tuple] | None:
        """The pending relabelings carried past segment v-1, or None to prune."""
        out: list[tuple] = []
        for p in pending:
            label, vertex, i, fresh = p
            if i == v or deg[vertex[i]] < 3:
                out.append(p)  # waits on the same segment: shared, not copied
            elif extend(label[:], vertex[:], i, fresh, v, out):
                return None
        return out

    def rec(prev_v: int, min_partner: int,
            pending: list[tuple]) -> Iterator[tuple[tuple[int, int], ...]]:
        v = n
        for i in range(n):
            if deg[i] < 3:
                v = i
                break
        if v != prev_v:
            min_partner = v + 1
            if 0 < v < n and deg[v] == 0:
                return  # partners are always larger; v could never reach a smaller vertex
            # segments from prev_v on may be left over from a sibling subtree
            del target[max(prev_v, 0):]
            for j in range(len(target), v):
                seg = [y for y in nbrs[j] if y > j]
                seg.sort()
                target.append(seg + [n] * (3 - len(seg)))
            pending = advance(pending, v)
            if pending is None:
                return  # a relabeling is smaller on final segments: no completion is canonical
        if v == n:
            yield tuple(edges)
            return
        fresh = -1
        for w in range(v + 1, n):
            if deg[w] == 0:
                fresh = w
                break
        # no partner is adjacent to v already: partners rise within v's turn,
        # and v's earlier neighbors are all below v
        for u in range(min_partner, n):
            if deg[u] >= 3:
                continue
            if deg[u] == 0 and u != fresh:
                continue  # BFS labeling: first touch goes to the smallest untouched label
            deg[v] += 1
            deg[u] += 1
            nbrs[v].append(u)
            nbrs[u].append(v)
            edges.append((v, u))
            yield from rec(v, u + 1, pending)
            edges.pop()
            nbrs[v].pop()
            nbrs[u].pop()
            deg[v] -= 1
            deg[u] -= 1

    roots = []  # one pending relabeling per root
    for r in range(n):
        label = [-1] * n
        label[r] = 0
        roots.append((label, [r] + [0] * (n - 1), 0, 1))
    yield from rec(-1, 1, roots)


def enumerate_cubic(n: int, distinct: bool = True) -> Iterator[CubicGraph]:
    """Stream of connected simple cubic graphs on n vertices, one per
    isomorphism class: the BFS labeling with the lexicographically smallest
    sorted edge list, in lexicographic order.  `distinct` takes only True.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("cubic graphs need an even vertex count of at least 4")
    if not distinct:
        raise ValueError("only isomorphism classes are enumerated; the labeled stream is test-only")
    for edges in _orderly_stream(n):
        yield CubicGraph(n, edges)
