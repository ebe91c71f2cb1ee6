"""Graph text formats: plain edge lists and sparse6.

Edge-list format: first line "n m", then m lines "u v" with 0 <= u,v < n and
u != v.  Repeated lines denote parallel edges.

sparse6 is the standard ':'-prefixed encoding and supports multi-edges, which
is why it is preferred over graph6 here.  The encoder follows the reference
byte layout exactly, including the power-of-two padding special case.
"""

from __future__ import annotations

from .errors import DegreeError, ParseError
from .graphs import CubicGraph

_FORMATS = ("edge-list", "sparse6")
_SPARSE6_HEADER = ">>sparse6<<"


def parse_graph(text: str, format: str = "edge-list") -> CubicGraph:
    """Parse text in the declared format; validates cubicity and loop-freeness."""
    if format == "edge-list":
        return _parse_edge_list(text)
    if format == "sparse6":
        return _parse_sparse6(text)
    raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")


def write_graph(graph: CubicGraph, format: str = "edge-list") -> str:
    if format == "edge-list":
        return _write_edge_list(graph)
    if format == "sparse6":
        return _write_sparse6(graph)
    raise ValueError(f"unknown format {format!r}; expected one of {_FORMATS}")


def detect_format(text: str) -> str:
    stripped = text.lstrip()
    if stripped.startswith(":") or stripped.startswith(_SPARSE6_HEADER):
        return "sparse6"
    return "edge-list"


# ---------------------------------------------------------------------------
# Edge list
# ---------------------------------------------------------------------------

def _parse_edge_list(text: str) -> CubicGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"bad header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {ln!r} out of range for n={n}")
        edges.append((u, v))
    if 2 * m != 3 * n:
        raise DegreeError(f"{m} edges cannot make {n} vertices cubic; that needs 3n/2 edges")
    return CubicGraph(n, tuple(edges))


def _write_edge_list(graph: CubicGraph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sparse6
# ---------------------------------------------------------------------------

def _n_to_data(n: int) -> list[int]:
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, (n >> 12) & 0x3F, (n >> 6) & 0x3F, n & 0x3F]
    return [
        63,
        63,
        (n >> 30) & 0x3F,
        (n >> 24) & 0x3F,
        (n >> 18) & 0x3F,
        (n >> 12) & 0x3F,
        (n >> 6) & 0x3F,
        n & 0x3F,
    ]


def _data_to_n(data: list[int]) -> tuple[int, list[int]]:
    if data[0] <= 62:
        return data[0], data[1:]
    # 63 then 18 bits in 3 characters, or 63 63 then 36 bits in 6 characters
    start, end = (1, 4) if len(data) > 1 and data[1] <= 62 else (2, 8)
    if len(data) < end:
        raise ParseError(f"sparse6 size field needs {end} characters, found {len(data)}")
    n = 0
    for d in data[start:end]:
        n = (n << 6) | d
    return n, data[end:]


def _bit_width(n: int) -> int:
    k = 1
    while (1 << k) < n:
        k += 1
    return k


def _write_sparse6(graph: CubicGraph) -> str:
    n = graph.n
    k = _bit_width(n)

    def enc(x: int) -> list[int]:
        return [(x >> (k - 1 - i)) & 1 for i in range(k)]

    edges = sorted((max(u, v), min(u, v)) for u, v in graph.edges)
    bits: list[int] = []
    curv = 0
    for v, u in edges:
        if v == curv:
            bits.append(0)
            bits.extend(enc(u))
        elif v == curv + 1:
            curv += 1
            bits.append(1)
            bits.extend(enc(u))
        else:
            curv = v
            bits.append(1)
            bits.extend(enc(v))
            bits.append(0)
            bits.extend(enc(u))
    # Plain 1-padding would read as an edge at vertex n-1 when n is a power
    # of two and enough padding bits remain; prepend a 0 in that case.
    if k < 6 and n == (1 << k) and ((-len(bits)) % 6) >= k and curv < (n - 1):
        bits.append(0)
    bits.extend([1] * ((-len(bits)) % 6))

    out = [":"]
    out.extend(chr(d + 63) for d in _n_to_data(n))
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        out.append(chr(word + 63))
    return "".join(out) + "\n"


def _parse_sparse6(text: str) -> CubicGraph:
    s = text.strip()
    if s.startswith(_SPARSE6_HEADER):
        s = s[len(_SPARSE6_HEADER):]
    if not s.startswith(":"):
        raise ParseError("sparse6 input must start with ':'")
    data = []
    for ch in s[1:]:
        val = ord(ch) - 63
        if not (0 <= val <= 63):
            raise ParseError(f"invalid sparse6 character {ch!r}")
        data.append(val)
    if not data:
        raise ParseError("empty sparse6 body")
    n, rest = _data_to_n(data)
    k = _bit_width(n)
    # each edge takes at least 1 + k bits; this also bounds n by the input size
    if 3 * n * (k + 1) > 12 * len(rest):
        raise DegreeError(f"sparse6 body too short for a cubic graph on {n} vertices")

    def pairs():
        d = 0
        dlen = 0
        chunks = iter(rest)
        while True:
            if dlen < 1:
                try:
                    d = next(chunks)
                except StopIteration:
                    return
                dlen = 6
            dlen -= 1
            b = (d >> dlen) & 1
            x = d & ((1 << dlen) - 1)
            xlen = dlen
            while xlen < k:
                try:
                    d = next(chunks)
                except StopIteration:
                    return
                dlen = 6
                x = (x << 6) + d
                xlen += 6
            x >>= xlen - k
            dlen = xlen - k
            yield b, x

    v = 0
    edges = []
    for b, x in pairs():
        if b == 1:
            v += 1
        if x >= n or v >= n:
            break  # padding
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return CubicGraph(n, tuple(edges))
