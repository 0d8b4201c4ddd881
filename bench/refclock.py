"""Reference-speed time.

On a shared host the speed of one core drifts by up to a factor of two
within seconds, so wall time alone does not compare two runs. The loop
therefore brackets each stretch of operations with a fixed pure-Python
reference loop. The reference loop is code of the benchmark's own, and no
change to pivotlab affects it. Each operation's wall time is then scaled by
``REF_NS / (mean of the two reference times)``. The result is the time the
operation would take on a machine where the reference loop takes exactly
``REF_NS``, one reference millisecond.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

REF_NS = 1_000_000

# A tree walk and an edge scan over fixed arrays, the same kind of work as
# pivotlab's distance kernel, frozen here so that it never changes.
_N = 240
_M = 720
_PARENT = [0] + [v - 1 - (v * 2654435761) % min(v, 8) for v in range(1, _N)]
_COST = [(v * 40503) % 97 for v in range(_N)]
_TAIL = [(e * 7919) % _N for e in range(_M)]
_HEAD = [(e * 104729) % _N for e in range(_M)]


def _reference_work(rounds: int = 6) -> int:
    hits = 0
    for _ in range(rounds):
        dist: list = [None] * _N
        dist[0] = 0
        for v in range(_N):
            path = []
            u = v
            while dist[u] is None:
                path.append(u)
                u = _PARENT[u]
            acc = dist[u]
            for w in reversed(path):
                acc = _COST[w] + acc
                dist[w] = acc
        for e in range(_M):
            if _COST[e % _N] + dist[_HEAD[e]] < dist[_TAIL[e]]:
                hits += 1
    return hits


def reference_ns(runs: int = 1) -> float:
    """Median wall time of `runs` runs of the reference loop."""
    times = []
    for _ in range(runs):
        t0 = perf_counter_ns()
        _reference_work()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times)


def scale(ref_before: float, ref_after: float) -> float:
    """Factor from wall time to reference time for work done between two
    reference runs."""
    return 2 * REF_NS / (ref_before + ref_after)
