"""Machine-speed gauge: times a fixed reference kernel at regular intervals
so that job times can be expressed in seconds at a fixed reference speed.

The shared host this benchmark runs on changes speed by up to 2x for
seconds to minutes at a time (a pure-Python loop flips between two speeds),
and every job slows or speeds up with it.  Raw wall times of two runs of
the same code then differ by more than any useful regression bound.  The
gauge samples the speed while the jobs run: a SIGALRM handler runs a small
pure-Python kernel (Fraction arithmetic, like the bounds code) every
INTERVAL_S seconds and records how long it took.  `work()` integrates the
measured speed over an interval of the run and returns the seconds the
interval would have taken at the reference speed, the speed at which one
kernel call takes REFERENCE_PROBE_S.  The kernel's own time is left out.

The kernel is fixed benchmark code, not macckit code, so a faster macckit
still shows as less reference time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05
#: Duration of one kernel call at the reference speed, between the two
#: speeds seen on a 2-vCPU Xeon VM (0.3 and 0.6 ms).
REFERENCE_PROBE_S = 0.0005


def kernel(n: int = 60) -> Fraction:
    """The reference work: a short Fraction sum, 0.3 to 0.6 ms."""
    total = Fraction(0)
    for i in range(1, n):
        total += Fraction(i, i + 1) * Fraction(i + 2, 3 * i + 1)
    return total


def probe() -> float:
    """Time one kernel call."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Gauge:
    """Speed samples taken from a SIGALRM handler while it is running."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # when each probe started
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._speeds: list[float] | None = None
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if len(self.ends) < len(self.starts):
            return  # an alarm during a probe that was itself delayed
        start = perf_counter()
        self.starts.append(start)
        kernel()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(signal.SIGALRM, None)

    # -- reading -------------------------------------------------------------

    def speeds(self) -> list[float]:
        """Reference seconds per second at each probe: the median of the
        probe and its two neighbours, so one preempted probe does not count."""
        d = self.durations
        smoothed = [statistics.median(d[max(0, i - 1):i + 2]) for i in range(len(d))]
        return [REFERENCE_PROBE_S / x for x in smoothed]

    def work(self, start: float, end: float) -> float:
        """Reference seconds of work done in [start, end], probe time excluded.

        Each gap between two probes runs at the mean speed of the two."""
        if self._speeds is None or len(self._speeds) != len(self.starts):
            self._speeds = self.speeds()
        speeds, starts, ends = self._speeds, self.starts, self.ends
        total = 0.0
        i = max(bisect.bisect_right(ends, start) - 1, 0)
        while i < len(starts) - 1 and ends[i] < end:
            gap_start, gap_end = max(ends[i], start), min(starts[i + 1], end)
            if gap_end > gap_start:
                total += (gap_end - gap_start) * (speeds[i] + speeds[i + 1]) / 2
            i += 1
        return total

    def probe_time(self, start: float, end: float) -> float:
        """Wall seconds spent in probes that started in [start, end]."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])
