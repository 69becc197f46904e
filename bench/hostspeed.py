"""Host-speed calibration of the benchmark's timings.

On a shared machine the speed of a core drifts, by up to about 1.7x within
seconds, as other tenants load it; CPU time drifts with wall time, and every
kind of Python work slows alike.  So every timing is taken together with the
time of a fixed reference computation that does not touch betaforge, read
before, during and after it, and is reported scaled to the reference's
nominal time:

    scaled = measured * REFERENCE_S / (harmonic mean of the reference times
                                       read before, during and after it)

A change to betaforge moves the measured time and not the reference, so the
scaled time moves by the same factor.  A change of host speed moves both, and
cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the median of reference() on a 2-vCPU Intel Xeon at 2.1 GHz, CPython 3.11;
# scaled timings read as times on that host at that speed
REFERENCE_S = 0.55e-3
# readings during an op, from a timer signal.  The drift moves within tenths
# of a second: on the twelve verify checks, readings every 10 ms cut the
# run-to-run spread of single checks by a third against readings every 50 ms.
# They take about 5% of the run's time, which is kept out of the ops' times.
INTERVAL_S = 0.01


def _work() -> int:
    """Rational arithmetic, tuple keys, dict stores and calls: the kinds of
    work betaforge does, in a fixed amount."""
    total, table = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(i * i + 1, 3 * i + 7)
        table[(i, i % 5)] = (total.numerator % 1000, i)
    return len(table)


def reference() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(readings: list[float]) -> float:
    """Factor that turns a time measured while ``readings`` were taken into
    a time at the nominal host speed.  The harmonic mean of the readings is
    the reference time at the mean speed over them, and a reading slowed by
    an interrupt barely moves it."""
    return REFERENCE_S / statistics.harmonic_mean(readings)


class Sampler:
    """Host-speed readings while ops run: one at every ``read()``, and one
    every INTERVAL_S from a timer signal, so that a long op is read during
    its run too.  ``clock()`` leaves the time spent reading out."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def read(self, *_signal) -> None:
        if self._busy:  # the timer fired during an explicit read
            return
        self._busy = True
        start = time.perf_counter()
        self.readings.append(reference())
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
