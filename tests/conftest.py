"""Shared test fixtures, and the Fraction reference for exact signs."""

import signal
import weakref
from fractions import Fraction

import pytest

from betaforge.numberfield import BaseField


@pytest.fixture
def wall_time_limit():
    """``wall_time_limit(seconds)`` makes the rest of the test raise
    TimeoutError once it has run that long, so a computation that never ends
    fails the test instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its wall-time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


# interval Horner in Fractions: the reference for enclosure() and for the
# field's integer form, which gives d^n times this over [a/d, b/d]
def _poly_over_interval(coeffs, lo, hi):
    """Conservative enclosure of the polynomial's range over [lo, hi]."""
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p0, p1, p2, p3 = vlo * lo, vlo * hi, vhi * lo, vhi * hi
        vlo = min(p0, p1, p2, p3) + c
        vhi = max(p0, p1, p2, p3) + c
    return vlo, vhi


# a twin of each field the reference has read: the same polynomial over the
# field's interval, built once; only the twin's interval is ever halved
_twins = weakref.WeakKeyDictionary()


def enclosure(x, width=None):
    """A rational interval around the value of the field element ``x``, at
    most ``width`` wide or, with no width, clear of 0 (x must then be
    nonzero): the reference for exact signs, in Fractions only.

    x's numerators are enclosed by interval arithmetic over the isolating
    interval of a twin of x's field, which is halved 8 times more until the
    enclosure is narrow enough.  The twin keeps its interval for the next
    call; x's own field is left as it is."""
    if x.is_rational():
        r = x.as_rational()
        return r, r
    field = x.field
    twin = _twins.get(field)
    if twin is None:
        twin = _twins[field] = BaseField(field.min_poly, field.interval())
    while True:
        lo, hi = twin.interval()
        vlo, vhi = _poly_over_interval(x.num, lo, hi)
        vlo, vhi = Fraction(vlo, x.den), Fraction(vhi, x.den)
        if (vhi - vlo <= width) if width is not None else (vlo > 0 or vhi < 0):
            return vlo, vhi
        twin.refine(8)
