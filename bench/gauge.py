"""A speed gauge for the host, sampled while the workload runs.

The benchmark runs on a few cores of a shared cloud host whose speed swings
by up to ~2x within seconds, and whose slow phases can last minutes (other
tenants).  ``Gauge`` times a fixed piece of pure-Python work -- Fraction
Gauss-Jordan elimination and a small dict sort, the kind of work the
library does -- every ``INTERVAL`` seconds from a ``SIGALRM`` handler, so
the samples interleave with the library's own work in the same thread.

``judge(start, end)`` gives a task's time less the samples taken inside it,
and the median sample around it: how slow the host was just then.
``scale(t, sample)`` turns such a time into the time on a host where one
sample takes ``NOMINAL_S``.  The samples cost about 2 % of the run and their
time is taken out of every task time.

In slow phases a sample slows by more than the library's work (one task
slowed 1.45x while the samples around it slowed 1.65x), so the time is
scaled by ``(NOMINAL_S / sample) ** POWER`` with ``POWER`` < 1.  Over 17 runs
of 38 s on the three workloads on a busy host, power 1 left the scaled wall
time falling as the host got slower (slope of log scaled time on log median
sample -0.16, -0.23, -0.27 for divisors, hodge, jacobian); power 0.8 left no
trend (-0.03, -0.01, -0.09).  There the interquartile range over the median
of the wall time was, for divisors, hodge and jacobian: raw median task
times summed 11 %, 18 %, 25 %; each task's fastest time 10 %, 15 %, 33 %;
scaled 2.4 %, 4.8 %, 7.4 %.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.025     # seconds between samples
WINDOW = 0.25        # samples this close to a task also judge it
# One sample's time on the fast phase of the 2-vCPU cloud VM (Python 3.11.7)
# the benchmark was tuned on, so scaled figures read near real seconds there.
NOMINAL_S = 4.2e-4
POWER = 0.8

_ROWS = [[Fraction((i + 2) ** j) for j in range(5)] for i in range(5)]


def probe():
    """A fixed piece of work: solve a 5x5 Vandermonde system, sort a dict."""
    a = [row + [Fraction(k + 1)] for k, row in enumerate(_ROWS)]
    n = len(a)
    for c in range(n):
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    table = {((i * 7) % 101, i % 13): (i, str(i)) for i in range(150)}
    return sorted(table.items()), [row[n] for row in a]


class Gauge:
    def __init__(self):
        self.at = []      # start of each sample
        self.took = []    # duration of each sample
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.took.append(time.perf_counter() - start)
        self.at.append(start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def judge(self, start, end):
        """(time of [start, end] less the samples in it, median sample near it)."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        net = (end - start) - sum(self.took[lo:hi])
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_left(self.at, end + WINDOW)
        near = self.took[lo:hi] or self.took
        return net, statistics.median(near)

    def summary(self):
        ordered = sorted(self.took)
        return {"samples": len(ordered),
                "p05_s": ordered[int(0.05 * (len(ordered) - 1))],
                "median_s": statistics.median(ordered)}


def scale(seconds, sample):
    """``seconds`` measured while a sample took ``sample``, at the nominal speed."""
    return seconds * (NOMINAL_S / sample) ** POWER


def spot(samples=21):
    """The median time of a few samples taken now, for a short interval."""
    took = []
    for _ in range(samples):
        start = time.perf_counter()
        probe()
        took.append(time.perf_counter() - start)
    return statistics.median(took)
