"""Spans recorded around the benchmark's own calls into `mvfa`.

A span has a name, a start and an end (perf_counter seconds), the span
that was open when it started (its parent) and the op it belongs to.
Spans stay in memory until the run ends.  `NullTracer` is the untraced
path: the same call sites, no recording.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counts are no-ops."""

    def span(self, name: str):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records spans (name, start, end, parent, op) and per-op counts."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def count(self, name: str, value: float) -> None:
        self.counts[name][self.op] += value

    def self_times(self) -> dict[str, list[tuple[int, float]]]:
        """Per span name, (op, self time in s): duration minus the children's."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[tuple[int, float]]] = defaultdict(list)
        for sid, name, start, end, _, op in self.spans:
            out[name].append((op, end - start - covered[sid]))
        return out

    def durations(self, name: str) -> dict[int, float]:
        """Total duration of the spans called `name`, per op."""
        out: dict[int, float] = defaultdict(float)
        for _, span_name, start, end, _, op in self.spans:
            if span_name == name:
                out[op] += end - start
        return out
