"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

The benchmark's machine is shared: other tenants' load moves its speed by
2x and more for seconds to minutes at a time, with no steal time reported, so
CPU time moves with wall time and neither can tell a slow program from a
slow machine.  The kernel below does the same kind of work as the package
(Fraction arithmetic on small polynomials, list and dict traffic) and never
changes, so the time it takes tracks the machine alone.

`Sampler` times the kernel on a wall-clock timer while items run, and
`Sampler.scale` turns an item's time into its time at the reference speed:
the speed of a machine on which the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# kernel time that defines the reference speed (on the 2-core machine of
# README.md it took 1.5 ms unloaded and up to 3.5 ms under other tenants' load)
REFERENCE_S = 0.0015
# how often the sampler times the kernel
SAMPLE_EVERY_S = 0.025
# an item is scaled by the kernel samples from this long before it starts
# to this long after it ends
WINDOW_S = 0.25

_ZERO = Fraction(0)
# h = t^3 + 5/3 t^2 - 3/5 t + 2/7, constant term first
_H = (Fraction(2, 7), Fraction(-3, 5), Fraction(5, 3))
_G = (((Fraction(1),), (Fraction(1),)), ((_ZERO, Fraction(1)), (Fraction(1), Fraction(1))))
_STEPS = 10


def _mul_mod_h(a, b) -> list:
    prod = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(len(prod) - 1, 2, -1):
        c = prod[d]
        if c:
            for i in range(3):
                prod[d - 3 + i] -= c * _H[i]
    return prod[:3]


def _add(a, b) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO) for i in range(n)]


def kernel() -> dict:
    """g^_STEPS over Q[t]/(h) for g = ((1, 1), (t, 1 + t)), with the
    coefficients of each power tallied by degree."""
    m = [[list(e) for e in row] for row in _G]
    tally: dict[int, Fraction] = {}
    for _ in range(_STEPS):
        m = [
            [_add(_mul_mod_h(m[r][0], _G[0][c]), _mul_mod_h(m[r][1], _G[1][c])) for c in range(2)]
            for r in range(2)
        ]
        for row in m:
            for entry in row:
                for d, v in enumerate(entry):
                    tally[d] = tally.get(d, _ZERO) + v
    return tally


def kernel_seconds(repeat: int) -> float:
    """Mean wall time of `repeat` kernel calls."""
    start = time.perf_counter()
    for _ in range(repeat):
        kernel()
    return (time.perf_counter() - start) / repeat


class Sampler:
    """Times the kernel every SAMPLE_EVERY_S of wall time, from a SIGALRM
    handler, so that the machine's speed is sampled during long items too.

    The handler runs in the main thread between bytecodes, inside whatever
    item is running; `busy` totals the time spent in it, which the caller
    takes out of the item's time.  Use as a context manager around the
    timed phase.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.busy = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.seconds.append(end - start)
        self.busy += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured over [start, end] to the
        reference speed: REFERENCE_S over the mean kernel time of the
        samples within WINDOW_S of it.  The mean, not the median: a stall
        that hits a kernel sample hits the items around it too."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < 3:  # too few samples in the window: three near it
            lo = max(0, min(lo, len(self.starts) - 3))
            hi = min(len(self.starts), lo + 3)
        return REFERENCE_S / statistics.fmean(self.seconds[lo:hi])
