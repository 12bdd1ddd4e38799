"""Machine-speed probe, so that timings can be reported at a fixed speed.

On a shared host the same Python code runs up to a quarter faster or
slower from one few-second stretch to the next, and the two cores drift
independently, so medians within a 10-second run cannot remove it.  While a
``SpeedProbe`` is active, a timer signal runs a fixed pure-Python kernel in
the measured thread every ``PERIOD_S`` seconds and records how long it took.
``reference_s`` then converts any interval into the seconds it would have
taken at the kernel's nominal speed: the probes' own time is removed, and
each stretch between two probes is scaled by the nominal kernel time over
the cost of the probes around it, smoothed over a quarter second.  The kernel is part of the benchmark,
not the library, so no library change moves it.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from time import perf_counter_ns

PERIOD_S = 0.05
# Median kernel time on the reference machine (2-core x86-64 VM, CPython 3.11).
NOMINAL_NS = 560_000
SMOOTH = 2  # each probe's cost is the median over it and SMOOTH probes either side


def kernel() -> int:
    """Bitset breadth-first searches over small pseudo-random graphs, with
    the int, list and dict work typical of the library."""
    state, total = 12345, 0
    for _ in range(8):
        adj = []
        for v in range(16):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            adj.append(state & 0xFFFF & ~(1 << v))
        sizes = {}
        for s in range(16):
            seen = frontier = 1 << s
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    nxt |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = nxt & ~seen
                seen |= frontier
            sizes[s] = seen.bit_count()
        total += sum(sorted(sizes.values()))
    return total


class SpeedProbe:
    """Context manager sampling the kernel's cost in the current thread."""

    def __init__(self) -> None:
        self.start: list[int] = []
        self.cost: list[int] = []
        self._smooth: list[float] = []
        self._busy = False

    def _tick(self, *_) -> None:
        if self._busy:  # a signal that lands inside a probe is dropped
            return
        self._busy = True
        t0 = perf_counter_ns()
        kernel()
        self.start.append(t0)
        self.cost.append(perf_counter_ns() - t0)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _scale(self, i: int) -> float:
        """Nominal over actual speed between probes i-1 and i."""
        if len(self._smooth) != len(self.cost):
            c = self.cost
            self._smooth = [statistics.median(c[max(j - SMOOTH, 0):j + SMOOTH + 1])
                            for j in range(len(c))]
        last = len(self._smooth) - 1
        return 2 * NOMINAL_NS / (self._smooth[max(i - 1, 0)] + self._smooth[min(i, last)])

    def _pieces(self, t0: int, t1: int):
        """The stretches of [t0, t1] between probes, each with the index of
        the probe that ends it (``perf_counter_ns`` stamps taken while the
        probe was active; a probe never straddles a stamp)."""
        i = bisect_right(self.start, t0)
        cur = t0
        while i < len(self.start) and self.start[i] < t1:
            yield self.start[i] - cur, i
            cur = min(self.start[i] + self.cost[i], t1)
            i += 1
        yield t1 - cur, i

    def work_s(self, t0: int, t1: int) -> float:
        """Wall seconds of [t0, t1] without the probes' own time."""
        return sum(length for length, _ in self._pieces(t0, t1)) / 1e9

    def reference_s(self, t0: int, t1: int) -> float:
        """Seconds that [t0, t1] would have taken at nominal speed."""
        return sum(length * self._scale(i) for length, i in self._pieces(t0, t1)) / 1e9
