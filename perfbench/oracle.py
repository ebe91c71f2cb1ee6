"""Answer checks that share no code with the library under test.

Each check works on plain vertex counts, edge lists and color tuples, so a
defect in the library's graph, coloring or solver code cannot hide itself
by being used to judge its own output.
"""

from __future__ import annotations


def _component_count(n: int, edges, skip: int = -1) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        if eid != skip:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def is_bridgeless(n: int, edges) -> bool:
    """True iff deleting any single edge leaves the component count unchanged."""
    base = _component_count(n, edges)
    return all(_component_count(n, edges, skip=e) == base for e in range(len(edges)))


def abnormal_count(n: int, edges, colors, k: int = 5) -> int | None:
    """Number of abnormal edges of a coloring, or None if it is not a proper
    k-edge-coloring of the cubic graph.

    An edge is abnormal when the colors at its two endpoints together number
    exactly four.
    """
    if len(colors) != len(edges) or any(not 1 <= c <= k for c in colors):
        return None
    palettes: list[set[int]] = [set() for _ in range(n)]
    degree = [0] * n
    for (u, v), c in zip(edges, colors):
        for w in (u, v):
            palettes[w].add(c)
            degree[w] += 1
    if any(d != 3 or len(p) != 3 for d, p in zip(degree, palettes)):
        return None
    return sum(1 for u, v in edges if len(palettes[u] | palettes[v]) == 4)
