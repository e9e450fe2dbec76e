"""A fixed piece of pure-Python work that times the host, not fano212.

The host this benchmark was tuned on (a 2-core VM on a shared machine) runs
the same work up to twice as slowly in some minutes as in others, with CPU
time equal to wall time: the slowdown is the shared hardware's, not
preemption.  A run cannot outlast those phases, so the worker times this
chunk between verdicts and run.py scales every timing by how fast the host
ran the chunk at that moment: a time reported as `s` is the time the
verdict would have taken on a host that runs one chunk in NOMINAL_S.

The chunk imitates fano212's inner loops (sparse polynomials as dicts of
exponent tuples with Fraction coefficients, integer gcds) and imports
nothing from fano212, so a change to the program cannot change it.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from math import gcd
from time import perf_counter

NOMINAL_S = 0.003   # about the mean chunk time on the 2-core VM this was tuned on


def _poly(seed: int, terms: int) -> dict:
    out = {}
    for i in range(terms):
        key = ((seed + i) % 3, (seed * i) % 4, (i * i) % 3)
        out[key] = out.get(key, 0) + Fraction(seed + 2 * i - 7, 1 + (seed + i) % 5)
    return out


P = _poly(3, 12)
Q = _poly(5, 12)


def _mul(p: dict, q: dict) -> dict:
    out = {}
    for (a, b, c), u in p.items():
        for (d, e, f), v in q.items():
            key = (a + d, b + e, c + f)
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def chunk() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    t0 = perf_counter()
    p = _mul(P, Q)
    p = _mul(p, P)
    g = 0
    for value in p.values():
        g = gcd(g, value.numerator * 1000003 + value.denominator)
    if g < 0:  # never true; keeps the work observable
        raise AssertionError
    return perf_counter() - t0


class HostSampler:
    """Times one chunk every INTERVAL_S of wall time, from a SIGALRM handler,
    so the samples cover the verdicts evenly, long ones included.  `spent`
    is the wall time spent in the handler, which the worker takes off the
    verdicts' times."""

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples = []       # (start, seconds) of each chunk
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.samples.append((t0, chunk()))
        self.spent += perf_counter() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrate(self, seconds: float):
        """Chunks back to back for `seconds` (outside any timed interval)."""
        end = perf_counter() + seconds
        while perf_counter() < end:
            t0 = perf_counter()
            self.samples.append((t0, chunk()))

    def scale(self, start: float, end: float, least: int = 8) -> float:
        """NOMINAL_S / the mean time of the chunks run between `start` and
        `end`, or of the `least` ones nearest that interval when fewer ran
        in it: multiply a time taken over that interval by this."""
        times = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while hi - lo < least and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        near = [d for _, d in self.samples[lo:hi]]
        return NOMINAL_S / (sum(near) / len(near))
