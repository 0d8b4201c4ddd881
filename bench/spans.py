"""Spans around the benchmark's calls into pivotlab.

A span records one call into the library: its name (``<module>.<function>``),
the operation it belongs to, start and end in nanoseconds, and the span that
contains it. Spans stay in memory; the benchmark summarises them per name and
per layer when the run ends. The library itself is not instrumented: a span
covers everything the call does, and a layer's self time is its spans'
durations minus the parts covered by their child spans.
"""

from __future__ import annotations

from time import perf_counter_ns


class NullTracer:
    """Calls straight through; used for the timed, untraced runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def inner(self, name, duration_ns):
        pass

    def begin_op(self, op):
        pass


class Tracer:
    """Records one span per library call, plus spans the library timed itself."""

    def __init__(self):
        # each span: [name, op, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op = -1

    def begin_op(self, op: int) -> None:
        """Tag the spans that follow with the operation they serve."""
        self._op = op

    def call(self, name, fn, *args, **kwargs):
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, self._op, 0, 0, parent]
        self.spans.append(span)
        self._open.append(i)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter_ns()
            span[2] = t0
            self._open.pop()

    def inner(self, name, duration_ns: int) -> None:
        """A child of the last closed span whose length the library measured
        (``ResultRecord.wall_ns``), placed at the start of its parent."""
        parent = len(self.spans) - 1
        start = self.spans[parent][2]
        self.spans.append([name, self._op, start, start + duration_ns, parent])

    def self_ns(self, factor=lambda op: 1.0) -> dict[str, list[float]]:
        """Per span name: [calls, total duration, total self time] in ns,
        each span scaled by `factor(op)`."""
        child = [0] * len(self.spans)
        for name, _op, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for k, (name, op, start, end, _parent) in enumerate(self.spans):
            f = factor(op)
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += (end - start) * f
            row[2] += (end - start - child[k]) * f
        return out

    def durations_ns(self, name: str, factor=lambda op: 1.0) -> list[float]:
        return [(end - start) * factor(op)
                for n, op, start, end, _p in self.spans if n == name]


def layer_busy_s(by_name: dict[str, list[float]], layer: str) -> float:
    """Self time of every span of one module, in seconds."""
    return sum(
        row[2] for name, row in by_name.items() if name.split(".")[0] == layer
    ) / 1e9
