"""Graph text formats: plain edge lists and sparse6.

Edge-list format: first line "n m", then m lines "u v" with 0 <= u,v < n and
u != v.  Repeated lines denote parallel edges.

sparse6 is the standard ':'-prefixed encoding and supports multi-edges, which
is why it is preferred over graph6 here.  The encoder follows the reference
byte layout exactly.  The reference puts a 0 before the 1-padding when n is a
power of two and the last item leaves the current vertex below n - 1; that
never happens here, because vertex n - 1 of a cubic graph has edges and items
go by larger endpoint, so the last item sets the current vertex to n - 1.  The
decoder keeps the general padding rule for texts from other encoders.
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
    if n < 0:
        raise ParseError(f"vertex count must be at least 0, got {n}")
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
    # 63 then 18 bits in 3 characters, or 63 63 then 36 bits in 6 characters
    head, chars = ([63], 3) if n <= 258047 else ([63, 63], 6)
    return head + [(n >> 6 * i) & 0x3F for i in reversed(range(chars))]


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
    return max(1, (n - 1).bit_length())


def _write_sparse6(graph: CubicGraph) -> str:
    n = graph.n
    label = f"0{_bit_width(n)}b"
    # items (b, x) as bit strings, in the decoder's order: by larger endpoint
    items = []
    curv = 0
    for v, u in sorted((max(u, v), min(u, v)) for u, v in graph.edges):
        if v > curv + 1:
            items.append("1" + format(v, label))
            curv = v
        items.append(("1" if v > curv else "0") + format(u, label))
        curv = v
    # no power-of-two padding case: vertex n - 1 has edges, so curv ends at n - 1
    bits = "".join(items)
    bits += "1" * (-len(bits) % 6)
    body = [chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6)]
    return ":" + "".join(chr(d + 63) for d in _n_to_data(n)) + "".join(body) + "\n"


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

    # read the (b, x) items, k + 1 bits each, through one buffer that holds
    # only the bits not yet read
    mask = (1 << k) - 1
    buf = nbits = v = 0
    edges = []
    for d in rest:
        buf = (buf << 6) | d
        nbits += 6
        while nbits > k:
            nbits -= k + 1
            item = buf >> nbits
            buf &= (1 << nbits) - 1
            v += item >> k
            x = item & mask
            if x >= n or v >= n:  # padding
                return CubicGraph(n, tuple(edges))
            if x > v:
                v = x
            else:
                edges.append((x, v))
    return CubicGraph(n, tuple(edges))
