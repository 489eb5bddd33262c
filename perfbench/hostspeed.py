"""Host speed samples, to scale wall-clock times to a reference host.

On a shared host the same computation can take twice as long from one minute
to the next, while the process is on a CPU the whole time (its CPU time moves
with its wall time).  A Sampler measures that drift as it happens: every
INTERVAL_S of wall time a SIGALRM handler, running in the measured thread
between two bytecodes of the program, times one fixed reference computation:
stdlib Fraction arithmetic on small and mid-sized numbers like the library's,
and a loop of dict and small-integer operations.
A timed interval is then reported in scaled seconds,

    (wall seconds - seconds spent sampling in it) * REFERENCE_S / r

where r is the median reference time sampled during the interval (or the
MIN_SAMPLES samples nearest to it): the seconds the interval would have taken
on a host where the reference takes REFERENCE_S.  The reference does not
depend on the program, so a change to the program moves scaled times exactly
as much as wall times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.03
MIN_SAMPLES = 5
# the reference's time on the host the scaled seconds are quoted for (about
# its median on a 2-vCPU Xeon VM at 2.0 GHz under CPython 3.12)
REFERENCE_S = 0.0015


def reference() -> Fraction:
    """The fixed computation whose time measures the host's speed."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc = (acc + Fraction(i % 7 + 1, i % 11 + 2)) / 2
        if acc > 1:
            acc -= 1
    big, step = Fraction(1, 3), Fraction(5, 7)
    for i in range(1, 25):
        big = big * Fraction(2 * i + 1, 3 * i + 2) + step
        step = -step / 2 if step > 0 else (1 - step) / 3
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i & 63] = counts.get(i & 63, 0) + (i * 3 >> 1)
    return acc + big + counts[7]


def reference_seconds(repeats: int) -> float:
    """Median time of the reference over `repeats` runs in a row."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the reference every INTERVAL_S while installed (a context
    manager); `scaled` converts an interval timed meanwhile."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, *_):
        t0 = perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled seconds of the interval [t0, t1] of perf_counter, less the
        sampling in it.  A sample runs between two bytecodes, so it lies
        wholly inside or wholly outside the interval."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        if len(inside) >= MIN_SAMPLES:
            near = inside
        else:
            middle = (t0 + t1) / 2
            nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - middle))
            near = [self.durations[i] for i in nearest[:MIN_SAMPLES]]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.median(near)
