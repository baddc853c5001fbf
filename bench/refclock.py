"""Host-speed reference clock for the benchmark's timings.

The machines this benchmark is meant for share their cores with other
tenants, and their single-thread speed moves by up to a factor of two
within seconds; wall-clock medians of the same code then differ by more
than a quarter from one set of runs to the next.  To compare commits, the
benchmark reports time at a fixed reference speed instead:

While a `RefClock` runs, a SIGALRM timer runs `kernel` (a fixed piece of
Fraction and dict work, like gvc's polynomial kernel) every INTERVAL_S
seconds of wall time, in the benchmark's own thread, and records when it
started and how long it took.  `seconds(t0, t1)` turns a wall interval
into reference seconds: the wall time minus the kernel's own time in it,
times NOMINAL_S over the mean kernel time of the samples in the interval
(widened to the nearest MIN_SAMPLES when it holds fewer).  A change to
gvc does not change the kernel, so it moves reference seconds as it moves
wall seconds on a quiet machine.
"""

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
MIN_SAMPLES = 10
# Near `kernel`'s median time in these runs on a 2 vCPU Xeon at 2.1 GHz
# with Python 3.11.7, so that reference seconds read close to wall seconds there.
NOMINAL_S = 0.001


def kernel():
    acc = {}
    for i in range(1, 151):
        key = (i % 29, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i % 11 + 1)
    return sorted(acc)


class RefClock:
    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, t0, t1):
        """Reference seconds for the wall interval [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(lo, mid - MIN_SAMPLES // 2))
            hi = min(len(self.starts), max(hi, lo + MIN_SAMPLES))
            lo = max(0, min(lo, hi - MIN_SAMPLES))
        if hi == lo:
            raise RuntimeError("refclock: no reference samples; was it started?")
        pace = sum(self.durations[lo:hi]) / (hi - lo)
        return (t1 - t0 - own) * NOMINAL_S / pace
