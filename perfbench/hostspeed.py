"""Host-speed reference: scales wall times to a nominal CPU speed.

On a shared 2-vCPU host, the speed one process sees drifts by up to 1.75x
over tens of seconds, as neighbours load the machine.  Identical work timed
back to back ran from 36 ms to 73 ms, and 60 s windows of it still spread by
a quarter (IQR over median).  Longer runs cannot average that away.

A pure-Python loop, timed between operations, tracks the drift.  Each
operation's wall time is multiplied by ``NOMINAL_MS`` over the loop's time
around it.  A change to the program moves the scaled time exactly as it moves
the wall time, while a change in host speed moves the operation and the loop
together and largely cancels.  The loop is the benchmark's own code, so no
change to the program can alter it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

LOOP_ITERATIONS = 20_000
# Scaled times read as wall times on a host where the loop takes this long
# (about the fastest the loop runs on a 2.1 GHz Xeon vCPU).
NOMINAL_MS = 1.5
# At most one sample per interval, so short operations pay about 2%.
SAMPLE_EVERY_S = 0.2
# Samples within this distance of an operation count toward its scale.
WINDOW_S = 0.5


def loop_ms() -> float:
    """Best of three timings of the reference loop, in ms (drops interrupts)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP_ITERATIONS):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class SpeedTrack:
    """A time series of reference-loop timings taken between operations."""

    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.loops.append(loop_ms())

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_MS over the median loop time near the interval [t0, t1].

        Uses every sample within WINDOW_S of the interval, and at least the
        last sample before it and the first after it.
        """
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        lo = min(lo, max(bisect.bisect_right(self.times, t0) - 1, 0))
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        hi = max(hi, bisect.bisect_left(self.times, t1) + 1)
        return NOMINAL_MS / statistics.median(self.loops[lo:hi])
