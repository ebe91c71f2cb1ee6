"""Seeded corpus of bridged cubic multigraphs, encoded as sparse6 text.

Each graph is two blocks joined by a bridge.  A block is a random connected,
loop-free cubic multigraph on four vertices drawn from the configuration
model, with one edge subdivided; the bridge joins the two subdivision
vertices.  A cubic graph with a bridge has no normal 5-edge-coloring, and no
cubic graph has exactly one abnormal edge, so every exact minimum is at least
2 and the solver must finish a full optimality proof on every graph.

The blocks have four vertices because the solver's effort per graph grows
and spreads fast with block size: a corpus with larger blocks makes the pass
time swing with the seed by more than the benchmark's bounds.

The sparse6 encoder lives here, not in the library, so the inputs do not
depend on the code under test and the library's parser is checked against
an encoding it did not produce.
"""

from __future__ import annotations

import hashlib
import random

BLOCK_VERTICES = 4
GRAPHS = 160
PARALLEL_SHARE = 0.3  # share of blocks that have parallel edges


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def random_block(rng: random.Random, n: int, parallel: bool) -> list[tuple[int, int]]:
    """A connected loop-free cubic multigraph on n vertices from the
    configuration model, drawn until its having parallel edges matches."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = [
            (min(stubs[i], stubs[i + 1]), max(stubs[i], stubs[i + 1]))
            for i in range(0, len(stubs), 2)
        ]
        if any(u == v for u, v in edges) or not _connected(n, edges):
            continue
        if (len(set(edges)) < len(edges)) == parallel:
            return edges


def bridged_graph(rng: random.Random, parallel: tuple[bool, bool]) -> tuple[int, list]:
    """Two subdivided blocks joined by a bridge; returns (n, edges)."""
    nb = BLOCK_VERTICES
    edges: list[tuple[int, int]] = []
    for side, par in enumerate(parallel):
        off = side * (nb + 1)
        block = random_block(rng, nb, par)
        split = rng.randrange(len(block))
        sub = off + nb  # the subdivision vertex
        for eid, (u, v) in enumerate(block):
            if eid == split:
                edges += [(off + u, sub), (off + v, sub)]
            else:
                edges.append((off + u, off + v))
    edges.append((nb, 2 * nb + 1))  # the bridge
    return 2 * (nb + 1), edges


def sparse6(n: int, edges) -> str:
    """Standard sparse6 encoding (':' header, multi-edges allowed)."""
    if n > 62:
        raise ValueError("the corpus only needs one-byte vertex counts")
    k = 1
    while (1 << k) < n:
        k += 1
    bits: list[int] = []

    def put(x: int) -> None:
        bits.extend((x >> (k - 1 - i)) & 1 for i in range(k))

    cur = 0
    for v, u in sorted((max(e), min(e)) for e in edges):
        if v == cur:
            bits.append(0)
        elif v == cur + 1:
            cur = v
            bits.append(1)
        else:
            cur = v
            bits.append(1)
            put(v)
            bits.append(0)
        put(u)
    pad = -len(bits) % 6
    if k < 6 and n == 1 << k and pad >= k and cur < n - 1:
        bits.append(0)  # keep the padding from reading as one more edge
        pad = -len(bits) % 6
    bits.extend([1] * pad)
    words = (
        sum(b << (5 - j) for j, b in enumerate(bits[i : i + 6]))
        for i in range(0, len(bits), 6)
    )
    return ":" + chr(n + 63) + "".join(chr(w + 63) for w in words)


def build(seed: int) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """The corpus for a seed: (sparse6 text, n, edge list) per graph."""
    rng = random.Random(seed)
    flags = [i < round(PARALLEL_SHARE * 2 * GRAPHS) for i in range(2 * GRAPHS)]
    rng.shuffle(flags)
    out = []
    for i in range(GRAPHS):
        n, edges = bridged_graph(rng, (flags[2 * i], flags[2 * i + 1]))
        out.append((sparse6(n, edges), n, edges))
    return out


def fingerprint(corpus) -> str:
    return hashlib.sha256("\n".join(text for text, _, _ in corpus).encode()).hexdigest()
