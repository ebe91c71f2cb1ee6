"""Call counting, span tracing and host-speed calibration for one pass.

Every call into a library layer goes through `Probe.call`, which counts it
under the layer's name.  A traced probe also records a span per call, per
operation and per pass: a dict with the span's id, name, start and end (in
`time.perf_counter` seconds), the id of the enclosing span, and the id of
the operation it belongs to.  Spans stay in memory until the run writes them
out.  Untraced runs pay only for the count, so the end-to-end metrics are
measured without the spans' cost.

The host this benchmark was defined on changes speed by up to half again,
in phases that last from seconds to minutes; no run is long enough to
average them out.  So the probe times a fixed pure-Python loop, the
yardstick, before the first operation of a pass and after every operation,
outside all timings, and after every library call longer than LONG_CALL_S.
A stretch of work timed between two yardsticks is calibrated by scaling it
with NOMINAL_S over their mean: the time it would take at the host speed
where the yardstick takes NOMINAL_S.  An operation's calibrated latency is
the sum over its stretches.
"""

from __future__ import annotations

import itertools
import time
import traceback
from collections import Counter

YARDSTICK_LOOPS = 60_000
LONG_CALL_S = 0.25
# The yardstick's time in the fast phases of a 2-vCPU Xeon host under
# Python 3.11; it only fixes the scale of calibrated times.
NOMINAL_S = 0.0040


def yardstick() -> float:
    """Seconds taken by a fixed pure-Python loop; tracks the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(YARDSTICK_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class Probe:
    """Counters, yardsticks, operation latencies and, when `spans` is a
    list, spans for one pass."""

    def __init__(self, spans: list | None, ids: itertools.count):
        self.spans = spans
        self.ids = ids
        self.counts: Counter = Counter()
        # (measured ms, calibrated ms, errors) per operation
        self.ops: list[tuple[float, float, list[str]]] = []
        self.yardsticks = [yardstick()]
        self._parent: int | None = None
        self._op: int | None = None
        self._mark = time.perf_counter()  # end of the stretch last calibrated
        self._calibrated = 0.0  # calibrated seconds of the current operation
        self._paused = 0.0  # yardstick seconds inside the current operation

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def call(self, name: str, fn, *args, **kwargs):
        """Run one library call, counted as `<name>.calls` and traced as one span."""
        self.counts[name + ".calls"] += 1
        sid = next(self.ids)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self.spans is not None:
                self._record(sid, name, start, self._parent, self._op, end)
            if end - start > LONG_CALL_S:
                self._calibrate(end)

    def _calibrate(self, end: float) -> None:
        """Close the stretch of work ending at `end` with a yardstick."""
        before = self.yardsticks[-1]
        self.yardsticks.append(yardstick())
        speed = (before + self.yardsticks[-1]) / (2 * NOMINAL_S)
        self._calibrated += (end - self._mark) / speed
        self._mark = time.perf_counter()
        self._paused += self._mark - end

    def span(self, name: str) -> "_Span":
        """An enclosing span, such as one pass; a no-op when untraced."""
        return _Span(self, name)

    def op(self) -> "Operation":
        return Operation(self)

    def _record(self, sid, name, start, parent, op, end=None) -> None:
        self.spans.append(
            {"id": sid, "name": name, "start": start,
             "end": time.perf_counter() if end is None else end,
             "parent": parent, "op": op}
        )


class _Span:
    def __init__(self, probe: Probe, name: str):
        self.probe = probe
        self.name = name

    def __enter__(self) -> "_Span":
        p = self.probe
        if p.spans is not None:
            self.sid = next(p.ids)
            self.outer = p._parent
            p._parent = self.sid
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        p = self.probe
        if p.spans is not None:
            p._parent = self.outer
            p._record(self.sid, self.name, self.start, self.outer, p._op)


class Operation:
    """One input answered with all its calls and checks.

    The operation is timed whether or not the probe traces.  A check that
    fails, or an exception escaping the body, marks the operation failed; the
    exception is reported on stderr and does not stop the pass.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.errors: list[str] = []
        self.discarded = False

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def discard(self) -> None:
        """Drop this operation from the latency and failure counts (used
        when the input stream turns out to be exhausted)."""
        self.discarded = True

    def __enter__(self) -> "Operation":
        p = self.probe
        self.sid = next(p.ids)
        self.outer = p._parent
        p._parent = p._op = self.sid
        p._calibrated = p._paused = 0.0
        self.start = p._mark = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        p = self.probe
        p._parent, p._op = self.outer, None
        if exc is not None:
            if not isinstance(exc, Exception):
                return False
            traceback.print_exception(exc_type, exc, tb)
            self.errors.append(f"raised {exc!r}")
            self.discarded = False
        if p.spans is not None:
            name = "tail" if self.discarded else "op"
            p.spans.append(
                {"id": self.sid, "name": name, "start": self.start, "end": end,
                 "parent": self.outer, "op": self.sid}
            )
        p._calibrate(end)
        if not self.discarded:
            ms = (end - self.start - p._paused) * 1000.0
            p.ops.append((ms, p._calibrated * 1000.0, self.errors))
        return True
