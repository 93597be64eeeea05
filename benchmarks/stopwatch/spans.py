"""In-memory span recorder for the stopwatch benchmark's traced run.

A span is ``[name, start, end, parent]`` on the ``time.perf_counter``
clock, where ``parent`` indexes the span that was open when this one
started (``-1`` for a root).  Spans are recorded only from the
benchmark's own files — around its calls into each layer, or around
public methods of instances it built (:meth:`Tracer.wrap`) — and kept in
memory until the run ends.

A disabled tracer (``Tracer(enabled=False)``) makes every entry point a
no-op, so the same helper code serves the untraced timing run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    """Context manager recording one span on its tracer."""

    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.record = [self.name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans and named counts for one traced phase."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str):
        """``with tracer.span("layer.step"):`` — time the block."""
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, amount: float) -> None:
        """Add to a named count, at the boundary where the work happens."""
        if self.enabled:
            self.counts[name] += amount

    def wrap(self, obj, method: str, name: str) -> None:
        """Time every call of a public method on an instance we built.

        Sets an instance attribute that shadows the class's method, so
        no other instance — and no file under ``src/`` — changes.
        """
        if not self.enabled:
            return
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with _Span(self, name):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)

    def timed_iter(self, name: str, iterable):
        """Yield from ``iterable``, timing each ``next()`` as one span
        (a generator does its work inside ``next``, not when called)."""
        if not self.enabled:
            yield from iterable
            return
        it = iter(iterable)
        while True:
            with _Span(self, name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    # -- read-out -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(inclusive, self)`` seconds per span name.

        A span's self time is its duration minus the part its child
        spans cover, so self times over a tree sum to the root's
        duration exactly.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            inclusive[name] += end - start
            self_time[name] += end - start - child
        return dict(inclusive), dict(self_time)

    def durations(self, name: str) -> list[float]:
        """Every recorded duration of one span name, in start order."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def chrome_events(self, tid: int, origin: float) -> list[dict]:
        """The spans as Chrome-trace complete ("X") events, microseconds
        since ``origin``; ``args.parent`` names the causing span."""
        return [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {
                    "parent": self.spans[parent][0] if parent >= 0 else None
                },
            }
            for name, start, end, parent in self.spans
        ]
