"""Host-speed reference for steadier timings on a shared machine.

On a host shared with other tenants the same work takes a different wall
time from one moment to the next: a fixed pure-Python loop measured here runs
anywhere from 29 ms to 45 ms per call, in spells lasting seconds to minutes.
A 20 s closed loop cannot average that out, so its wall time spreads by
20-30% between runs with identical inputs.

The pacer runs a small fixed reference chunk at stage boundaries and before
every OCP solve, in the same process and on the same core as the program,
and records how long each chunk took. A timed interval is then rescaled by
``NOMINAL_CHUNK_S / (median chunk time around that moment)``: the result is
the interval's wall time on a host running at the nominal speed. Chunk time
is excluded from every interval it falls into. Raw wall times are reported
alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

CHUNK_ITERATIONS = 2000
# median chunk time on the 2-core host the benchmark was tuned on
# (Python 3.11, x86_64); it only sets the scale of the rescaled timings
NOMINAL_CHUNK_S = 190e-6
WINDOW_S = 1.0  # chunks within this distance of a moment describe its speed


def _chunk() -> int:
    s = 0
    for i in range(CHUNK_ITERATIONS):
        s += i * i % 7
    return s


class Pacer:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def tick(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            _chunk()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def around(self, original, *args, **kwargs):
        """Probe body: one chunk, then the original call."""
        self.tick()
        return original(*args, **kwargs)

    def factor(self, t: float) -> float:
        """NOMINAL / local chunk time: >1 while the host runs fast."""
        lo = bisect.bisect_left(self.starts, t - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + WINDOW_S)
        if hi <= lo:  # no chunk that close: take the nearest ones
            mid = bisect.bisect_left(self.starts, t)
            lo, hi = max(0, mid - 8), min(len(self.starts), mid + 8)
        return NOMINAL_CHUNK_S / statistics.median(self.durations[lo:hi])

    def raw(self, a: float, b: float) -> float:
        """Wall time of [a, b] minus the chunks run inside it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return (b - a) - sum(self.durations[lo:hi])

    def scaled(self, a: float, b: float) -> float:
        """Rescaled time of [a, b], piece by piece between chunks."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        edges = [a] + self.starts[lo:hi] + [b]
        spent = [0.0] + self.durations[lo:hi]
        total = 0.0
        for start, end, chunk in zip(edges, edges[1:], spent):
            total += (end - start - chunk) * self.factor(0.5 * (start + end))
        return total
