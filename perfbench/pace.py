"""Machine pace: timings corrected for how fast the machine ran at the time.

The benchmark runs on a few cores of a shared host whose speed moves by up
to 2x from one second to the next, with the same share of CPU time (the
process's CPU time moves with its wall time, so CPU time does not help).
A plain stopwatch therefore measures the neighbours as much as the program.

``Pace`` samples the speed while the program runs.  A real-time interval
timer interrupts the main thread every ``PERIOD`` seconds, and the signal
handler times one fixed calibration unit of pure-Python work (Fraction
arithmetic, dict and tuple traffic, like the kernel's).  An interval of the
program's time is then converted to *reference seconds*: its own wall time,
less the handler time that fell inside it, scaled by the pace of the
calibration units run during and around it, so that a second at the
reference pace ``UNIT_REF_S`` per unit stays a second.  No thread or
process is started; the handler runs between bytecodes of the main thread.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD = 0.005
# Wall time of one calibration unit at the reference pace (the median
# unit on a 2-vCPU virtual machine under Python 3.11 when the benchmark
# was defined).  It only sets the scale of reference seconds.
UNIT_REF_S = 2.0e-4
# Intervals shorter than the calibration period are paced by this many
# units on each side of them.
NEIGHBOURS = 2

clock = time.perf_counter


def unit():
    """The fixed calibration work; it must never change."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 41):
        acc += Fraction(i, i + 1)
        key = (i % 5, i % 3)
        table[key] = table.get(key, 0) + i
    return acc, table


class Pace:
    """Context manager that samples the machine's pace while it is active."""

    def __init__(self):
        self.starts = []  # start of each calibration unit
        self.walls = []  # its wall time
        self._cum = [0.0]  # running sum of walls, for handler time in a span
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        unit()
        self.record(t0, clock() - t0)
        self._busy = False

    def record(self, start, wall):
        """Note one calibration unit; starts must come in order."""
        self.starts.append(start)
        self.walls.append(wall)
        self._cum.append(self._cum[-1] + wall)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def reference_s(self, t0, t1):
        """Reference seconds of the program's own work in [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = (t1 - t0) - (self._cum[hi] - self._cum[lo])
        # the units inside the span, and NEIGHBOURS more on each side
        a, b = max(0, lo - NEIGHBOURS), min(len(self.walls), hi + NEIGHBOURS)
        if a == b:
            raise RuntimeError("no calibration units were run; is the timer blocked?")
        # mean speed over the span: the harmonic mean of the unit times
        rate = sum(1 / w for w in self.walls[a:b]) / (b - a)
        return own * rate * UNIT_REF_S

    def median_unit_s(self):
        ordered = sorted(self.walls)
        return ordered[len(ordered) // 2] if ordered else 0.0
