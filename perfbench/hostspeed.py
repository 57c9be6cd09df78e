"""Host-speed calibration: a fixed slice of work that does not touch qchar.

On a shared host the same pure-Python job runs up to 1.6x slower while a
neighbour is busy, in stretches from a fraction of a second to minutes, and
CPU time rises with wall time, so neither clock removes it.  ``sample()``
times a fixed mix of the operations qchar's layers spend their time in
(``Fraction`` products and sums, big-integer dict updates, mpmath
fixed-precision ``mpf`` arithmetic) and nothing of qchar, so a change to
qchar cannot change it.

``Meter`` takes a sample before a job, one every ``PERIOD_S`` while it runs
(from a SIGALRM handler, between two bytecodes of the job) and one after
it.  The job's ``seconds`` exclude the time spent in those samples; its
*reference seconds* are ``seconds * REF_S / mean(samples)``, the time the
job would take at the speed at which one sample takes ``REF_S``.

A sample runs with the cyclic garbage collector off, so its time does not
depend on how much memory qchar holds at that moment.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

from mpmath.libmp import from_int, from_rational, mpf_add, mpf_exp, mpf_mul

# seconds one sample takes on a 2-vCPU Intel Xeon (Python 3.11, mpmath 1.3
# with its pure-Python backend) while the host is quiet
REF_S = 0.0015
PERIOD_S = 0.05

_A = [Fraction(i + 1, i + 2) for i in range(12)]
_PREC = 160


def _work():
    for _ in range(2):
        c = [Fraction(0)] * 24
        for i, x in enumerate(_A):
            for j, y in enumerate(_A):
                c[i + j] += x * y
    d = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i * i
    x, acc = from_rational(1, 3, _PREC), from_int(0)
    for i in range(40):
        acc = mpf_add(acc, mpf_mul(x, from_int(i), _PREC), _PREC)
    return c, d, mpf_exp(acc, _PREC)


def sample() -> float:
    """Seconds one run of the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def mean_sample(n: int) -> float:
    return statistics.fmean(sample() for _ in range(n))


class Meter:
    """Times the work in its ``with`` block and the host speed around it.

    ``on_sample(start, end)``, if given, is told the interval of every
    sample taken inside the block."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample

    def __enter__(self):
        self.samples = [sample()]
        self._spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.seconds = elapsed - self._spent
        self.samples.append(sample())
        self.calib_s = statistics.fmean(self.samples)
        self.ref_s = self.seconds * REF_S / self.calib_s
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        t1 = time.perf_counter()
        self._spent += t1 - t0
        if self.on_sample is not None:
            self.on_sample(t0, t1)
