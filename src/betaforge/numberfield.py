"""Exact arithmetic in Q(q) for a fixed real algebraic base q.

A base is described by a monic integer polynomial together with a rational
interval that isolates exactly one real root.  No floating point is involved
in any decision.

Lattice form.  An element is stored as integer numerators over one positive
common denominator, ``(num, den)``, meaning sum(num[i] * q^i) / den, with
gcd(num..., den) = 1.  Equality and hashing therefore compare tuples of
ints.  Since the defining polynomial is monic, q is an algebraic integer:
multiplying by q (one orbit step) is an integer shift plus one companion-row
reduction and never grows ``den``.

Signs.  Every comparison reduces to the sign of sum(num[i] * q^i).  Each
field lazily fixes, on its first irrational sign, the scaled powers
Q[i] = q^i * 2^P rounded to integers with |Q[i] - q^i * 2^P| < 3/2, at
P = FILTER_BITS.  They come from a private dyadic bracket of q, found by
integer bisection inside the isolating interval, so the shared interval and
everything printed from it stay as they are.  Then

    |sum(num[i] * Q[i]) - 2^P * sum(num[i] * q^i)| < 2 * sum(|num[i]|),

so whenever |sum(num[i] * Q[i])| > 2 * sum(|num[i]|) + 2 the sign of the
integer sum is the sign of the element.  That is the filter: integers only,
with a certified error bound.  When the sum is too small to decide, the sign
falls back to the exact certificate: refining the shared isolating interval
and enclosing the value with rational interval arithmetic until the
enclosure clears zero.

Decimals.  The same sums at a higher precision P enclose 2^P * den * value in
an integer interval; both ends are rounded half to even, in integers, and P
grows until they agree.  Floats come from the same sums, and neither floats
nor decimals refine the isolating interval.
Enclosures convert to ``Fraction`` at the edge; inverses stay in integers
(an adjugate).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence


class NotMonic(ValueError):
    """The defining polynomial is not monic."""


class NoRootInInterval(ValueError):
    """The isolating interval contains no root, or no sign change, of the
    polynomial."""


class AmbiguousInterval(ValueError):
    """The isolating interval brackets more than one real root."""


class ReduciblePolynomial(ValueError):
    """The defining polynomial has a rational root, so it generates no field."""


class MixedFields(TypeError):
    """Operands belong to two different BaseField instances."""


RationalLike = int | Fraction

# bits of the sign filter's scaled powers q^i * 2^P
FILTER_BITS = 128
# undecided rounds of exact refinement (8 bisections each) before the sign
# tests whether the element vanishes at q
_GCD_ROUNDS = 4

# ---------------------------------------------------------------------------
# rational polynomial helpers (coefficient lists, ascending powers)


def _sgn(r: Fraction | int) -> int:
    return (r > 0) - (r < 0)


def _poly_at(coeffs: Sequence[Fraction | int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_over_interval(
    coeffs: Sequence[Fraction | int], lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Conservative enclosure of the polynomial's range over [lo, hi]."""
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p0, p1, p2, p3 = vlo * lo, vlo * hi, vhi * lo, vhi * hi
        vlo = min(p0, p1, p2, p3) + c
        vhi = max(p0, p1, p2, p3) + c
    return vlo, vhi


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a divided by b (b's leading coefficient nonzero), with
    trailing zero coefficients stripped."""
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()  # the leading coefficient is now zero
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_gcd(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> list[Fraction]:
    """A greatest common divisor over Q, up to a constant factor, of a
    (leading coefficient nonzero) and b, by Euclid's algorithm."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def _sturm_count(coeffs: Sequence[Fraction | int], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] of a polynomial that
    vanishes at neither end (Sturm's theorem, exact over Q)."""
    chain = [[Fraction(c) for c in coeffs]]
    chain.append([k * c for k, c in enumerate(chain[0])][1:])
    while True:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x: Fraction) -> int:
        signs = [s for s in (_sgn(_poly_at(p, x)) for p in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss: every division is
    exact, so the work stays in integers)."""
    m = [list(r) for r in rows]
    n, parity, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            parity = -parity
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return parity * m[-1][-1]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend((d, n // d))
        d += 1
    return sorted(set(out))


# ---------------------------------------------------------------------------


class BaseField:
    """The field Q(q), where q is the unique real root of ``min_poly`` inside
    the rational interval ``iso``.

    ``min_poly`` is given by ascending integer coefficients and must be monic
    of degree at least 2.  Construction certifies the interval: it must
    bracket exactly one simple real root (a Sturm sequence counts the roots
    in it exactly), and the polynomial must have no rational root (for
    degrees 2 and 3 that makes irreducibility over Q a theorem; for higher
    degrees it is a screen, and the interval certificate still pins down a
    single well-defined real number).

    The isolating interval only ever shrinks; every comparison made through
    it stays valid afterwards.  The field also owns its derived constants,
    each computed on first use: its finest dyadic bracket of q, the scaled
    powers at each precision asked for (the sign filter's in a slot of their
    own), the domain bounds 1/q, 1/(q(q-1)), 1/(q-1) and their scaled sums.
    ``_branches`` is the branch memo of ``branching``: the forced runs out of
    each switch point expanded so far, in ints and tuples only.
    """

    __slots__ = ("min_poly", "degree", "name", "_lo", "_hi", "_sign_lo", "_reduction_rows",
                 "_bracket", "_powers", "_fine", "_domain", "_sums", "_branches",
                 "__weakref__")

    def __init__(
        self,
        min_poly: Iterable[int],
        iso: tuple[RationalLike | str, RationalLike | str],
        name: str | None = None,
    ):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 3:
            raise ValueError("defining polynomial must have degree >= 2")
        if coeffs[-1] != 1:
            raise NotMonic(f"leading coefficient is {coeffs[-1]}, expected 1")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        self.name = name
        self._bracket: tuple[int, int] | None = None
        self._powers: tuple[int, ...] | None = None
        self._fine: dict[int, tuple[int, ...]] = {}
        self._domain: tuple[AlgebraicReal, AlgebraicReal, AlgebraicReal] | None = None
        self._sums: tuple[tuple[AlgebraicReal, int, int, int], ...] | None = None
        self._branches: dict[tuple[int, ...], tuple] = {}

        lo, hi = Fraction(iso[0]), Fraction(iso[1])
        if not lo < hi:
            raise ValueError("isolating interval is empty")

        # Rational-root screen: a rational root of a monic integer polynomial
        # is an integer dividing the constant term.
        if coeffs[0] == 0:
            raise ReduciblePolynomial("zero constant term: x divides the polynomial")
        for cand in _divisors(coeffs[0]):
            for r in (cand, -cand):
                if _poly_at(coeffs, Fraction(r)) == 0:
                    raise ReduciblePolynomial(f"rational root {r}")

        # Count the roots in [lo, hi] exactly (post-screen neither end is a
        # root); a sign-change grid alone misses roots that share a cell.
        roots = _sturm_count(coeffs, lo, hi)
        if roots == 0:
            raise NoRootInInterval(f"no root of {coeffs} in [{lo}, {hi}]")
        if roots > 1:
            raise AmbiguousInterval(f"{roots} real roots of {coeffs} in [{lo}, {hi}]")

        # Bracket the root's sign change on a grid over [lo, hi].  Grid
        # points are rational, so (post-screen) the polynomial is nonzero at
        # every one of them.
        grid_n = 32
        pts = [lo + (hi - lo) * Fraction(i, grid_n) for i in range(grid_n + 1)]
        signs = [_sgn(_poly_at(coeffs, p)) for p in pts]
        crossings = [i for i in range(grid_n) if signs[i] * signs[i + 1] < 0]
        if not crossings:  # a root of even multiplicity
            raise NoRootInInterval(f"no sign change of {coeffs} over [{lo}, {hi}]")
        i = crossings[0]
        self._lo, self._hi = pts[i], pts[i + 1]
        self._sign_lo = signs[i]

        # Refine until the derivative is sign-definite on the interval: then
        # the bracketed root is unique and simple.
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        for _ in range(256):
            dlo, dhi = _poly_over_interval(deriv, self._lo, self._hi)
            if dlo > 0 or dhi < 0:
                break
            self._bisect()
        else:
            raise AmbiguousInterval("could not certify a simple root by refinement")

        # Rows expressing q^k (k = degree .. 2*degree-2) in the power basis;
        # monic integer polynomial, so the rows are integer vectors.
        rows = []
        row = [-c for c in coeffs[:-1]]
        rows.append(tuple(row))
        for _ in range(self.degree - 2):
            top = row[-1]
            row = [0] + row[:-1]
            row = [r + top * m for r, m in zip(row, rows[0])]
            rows.append(tuple(row))
        self._reduction_rows = tuple(rows)

    # -- isolating interval ------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        """Current isolating interval (it only ever shrinks)."""
        return self._lo, self._hi

    def _bisect(self) -> None:
        mid = (self._lo + self._hi) / 2
        s = _sgn(_poly_at(self.min_poly, mid))
        if s == 0:
            raise ReduciblePolynomial(f"rational root {mid}")
        if s == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid

    def refine(self, steps: int = 1) -> tuple[Fraction, Fraction]:
        """Halve the isolating interval ``steps`` times."""
        for _ in range(steps):
            self._bisect()
        return self.interval()

    # -- sign filter ---------------------------------------------------------

    def _sign_at_dyadic(self, m: int, k: int) -> int:
        """Sign of the defining polynomial at m / 2^k, in integers."""
        acc, scale = 0, 1
        for c in reversed(self.min_poly):
            acc = acc * m + c * scale
            scale <<= k
        return _sgn(acc)

    def _dyadic_bracket(self, k: int) -> int:
        """The integer m with m/2^k < q < (m+1)/2^k.

        The field keeps its finest bracket (m0, k0), a cell in which q is the
        only root: a coarser bracket is a shift of m0, and a finer one bisects
        from m0 * 2^(k - k0) in integers.  The first bracket is bisected
        between grid points inside the isolating interval, the one time it
        is read (no dyadic point is a root: there are no rational roots)."""
        if self._bracket is None:
            lo, hi, k0 = self._lo, self._hi, k
            while True:
                a, b = math.ceil(lo * 2**k0), math.floor(hi * 2**k0)
                if (a < b and self._sign_at_dyadic(a, k0) == self._sign_lo
                        and self._sign_at_dyadic(b, k0) != self._sign_lo):
                    break
                k0 += 32  # q lies within 2^-k0 of an end of the interval
        else:
            m, k0 = self._bracket
            if k <= k0:
                return m >> (k0 - k)
            a, b, k0 = m << (k - k0), (m + 1) << (k - k0), k
        while b - a > 1:
            mid = (a + b) // 2
            if self._sign_at_dyadic(mid, k0) == self._sign_lo:
                a = mid
            else:
                b = mid
        self._bracket = (a, k0)
        return a >> (k0 - k)

    def _scaled_powers(self, p: int | None = None) -> tuple[int, ...]:
        """Integers Q[i] with |Q[i] - q^i * 2^p| < 3/2, for i < degree;
        computed once per precision p from the field's dyadic bracket of q.
        With no argument, the sign filter's tuple at p = FILTER_BITS."""
        if p is None:
            if self._powers is None:
                self._powers = self._scaled_powers(FILTER_BITS)
            return self._powers
        powers = self._fine.get(p)
        if powers is None:
            k = p + 4 * self.degree
            while True:
                m = self._dyadic_bracket(k)
                powers = [1 << p]
                for i in range(1, self.degree):
                    # q^i * 2^p lies between m^i and (m+1)^i, over 2^shift
                    a, b = sorted((m**i, (m + 1) ** i))
                    shift = k * i - p
                    if b - a > 1 << shift:  # half-width above 1/2: bracket more finely
                        break
                    powers.append((a + b) >> (shift + 1))
                else:
                    powers = self._fine[p] = tuple(powers)
                    break
                k += 32
        return powers

    # -- derived constants -----------------------------------------------------

    def domain_bounds(self) -> tuple["AlgebraicReal", "AlgebraicReal", "AlgebraicReal"]:
        """(1/q, 1/(q(q-1)), 1/(q-1)): switch interval endpoints and the
        domain top, computed once.  Raises ValueError unless 1 < q < 2, the
        bases in which these bounds describe expansions."""
        if self._domain is None:
            q = self.q
            if not 1 < q < 2:
                raise ValueError("base q is outside (1, 2): expansions need 1 < q < 2")
            upper = self.one / (q - 1)
            switch_lo = self.one / q
            self._domain = (switch_lo, switch_lo * upper, upper)
        return self._domain

    def _domain_sums(self) -> tuple[tuple["AlgebraicReal", int, int, int], ...]:
        """(b, b.den, S, E) for b = 0, 1/q, 1/(q(q-1)), 1/(q-1), the bounds of
        the domain and its regions, with b's scaled sum (S, E) from
        ``_scaled``; computed once."""
        if self._sums is None:
            bounds = (self.zero, *self.domain_bounds())
            self._sums = tuple((b, b.den, *b._scaled()) for b in bounds)
        return self._sums

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Iterable[RationalLike]) -> "AlgebraicReal":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError(f"coefficient vector longer than degree {self.degree}")
        vec.extend([Fraction(0)] * (self.degree - len(vec)))
        # the lcm of lowest-terms denominators leaves the lattice form reduced
        den = math.lcm(*(c.denominator for c in vec))
        return AlgebraicReal(self, tuple(c.numerator * (den // c.denominator) for c in vec), den)

    def from_rational(self, r: RationalLike) -> "AlgebraicReal":
        return self.element([r])

    @property
    def zero(self) -> "AlgebraicReal":
        return self.from_rational(0)

    @property
    def one(self) -> "AlgebraicReal":
        return self.from_rational(1)

    @property
    def q(self) -> "AlgebraicReal":
        """The base itself as a field element."""
        return self.element([0, 1])

    def __repr__(self) -> str:
        tag = self.name or f"poly={list(self.min_poly)}"
        return f"BaseField({tag}, interval=({float(self._lo):.6g}, {float(self._hi):.6g}))"


def define_field(
    min_poly: Iterable[int],
    iso: tuple[RationalLike | str, RationalLike | str],
    name: str | None = None,
) -> BaseField:
    """Construct the field Q(q) for the unique root of ``min_poly`` in ``iso``."""
    return BaseField(min_poly, iso, name=name)


@lru_cache(maxsize=None)
def q2_field() -> BaseField:
    """Base q2: the root of x^4 = 2x^2 + x + 1 in (1.7, 1.72), ~1.7106440950."""
    return define_field((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25)), name="q2")


@lru_cache(maxsize=None)
def qf_field() -> BaseField:
    """Base qf: the root of x^3 = 2x^2 - x + 1 in (1.7, 1.8), ~1.7548776662."""
    return define_field((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5)), name="qf")


@lru_cache(maxsize=None)
def golden_field() -> BaseField:
    """The golden ratio (1 + sqrt 5)/2 as a base, ~1.6180339887."""
    return define_field((-1, -1, 1), (Fraction(3, 2), Fraction(17, 10)), name="golden")


def _times_q(num: tuple[int, ...], row: tuple[int, ...], low: int = 0) -> tuple[int, ...]:
    """Numerators of q * sum(num[i] q^i) + low: a shift, then q^degree
    replaced by its companion ``row``."""
    top = num[-1]
    return tuple([a + top * m for a, m in zip((low,) + num[:-1], row)])


def _reduced(field: BaseField, num: Sequence[int], den: int) -> "AlgebraicReal":
    """The element sum(num[i] q^i) / den (den > 0) in lowest lattice terms."""
    g = math.gcd(den, *num)
    if g != 1:
        return AlgebraicReal(field, tuple(n // g for n in num), den // g)
    return AlgebraicReal(field, tuple(num), den)


class AlgebraicReal:
    """An element of Q(q) in lattice form: integer numerators ``num`` over
    the power basis 1, q, ..., q^(degree-1) and one positive denominator
    ``den``, reduced so that gcd(num..., den) = 1.

    Arithmetic is exact.  Signs come from the field's integer filter and,
    when it cannot decide, from refining the field's isolating interval; two
    elements are equal exactly when their lattice forms coincide.  Rationals
    and ints mix freely with elements of a field; elements of two different
    fields do not (MixedFields).
    """

    __slots__ = ("field", "num", "den", "_approx")

    def __init__(self, field: BaseField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den
        self._approx: tuple[int, int] | None = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coordinates in the power basis 1, q, ..., q^(degree-1)."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "AlgebraicReal | None":
        if isinstance(other, AlgebraicReal):
            if other.field is not self.field:
                raise MixedFields("operands belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self.num[0], self.den)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            return _reduced(self.field, [x + y for x, y in zip(self.num, o.num)], a)
        return _reduced(self.field, [x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            return _reduced(self.field, [x - y for x, y in zip(self.num, o.num)], a)
        return _reduced(self.field, [x * b - y * a for x, y in zip(self.num, o.num)], a * b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return AlgebraicReal(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num):
                    if b:
                        prod[i + j] += a * b
        res = prod[:d]
        for k in range(d, 2 * d - 1):
            ck = prod[k]
            if ck:
                row = self.field._reduction_rows[k - d]
                for i, m in enumerate(row):
                    if m:
                        res[i] += ck * m
        return _reduced(self.field, res, self.den * o.den)

    __rmul__ = __mul__

    def times_q_minus(self, d: int) -> "AlgebraicReal":
        """q*x - d for an integer d: one orbit step, an integer shift plus one
        companion-row reduction; the denominator never grows."""
        field, den = self.field, self.den
        return _reduced(field, _times_q(self.num, field._reduction_rows[0], -d * den), den)

    def inverse(self) -> "AlgebraicReal":
        """Multiplicative inverse, in integers: den / N(q) with 1/N(q) read
        off the adjugate of the matrix of multiplication by N(q)."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if self.is_rational():
            return self.field.from_rational(Fraction(self.den, self.num[0]))
        # column j holds the coordinates of N(q) * q^j
        cols = [self.num]
        for _ in range(self.field.degree - 1):
            cols.append(_times_q(cols[-1], self.field._reduction_rows[0]))
        rows = [list(r) for r in zip(*cols)]
        det = _det(rows)
        if det == 0:
            # only possible when the defining polynomial is not irreducible
            raise ReduciblePolynomial("defining polynomial shares a factor with an element")
        # 1/N(q) = adj(M) e_0 / det, and adj(M)[i][0] is the (0, i) cofactor
        minor = rows[1:]
        adj = [(-1) ** i * _det([r[:i] + r[i + 1:] for r in minor]) for i in range(len(rows))]
        if det < 0:
            det, adj = -det, [-a for a in adj]
        return _reduced(self.field, [a * self.den for a in adj], det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order ---------------------------------------------------------------

    def enclosure(self) -> tuple[Fraction, Fraction]:
        """A rational interval certainly containing the value (not refined)."""
        if self.is_rational():
            r = Fraction(self.num[0], self.den)
            return r, r
        lo, hi = self.field.interval()
        vlo, vhi = _poly_over_interval(self.num, lo, hi)
        return vlo / self.den, vhi / self.den

    def _scaled(self) -> tuple[int, int]:
        """(S, E): S = sum(num[i] * Q[i]) is within E of 2^P * den * value."""
        if self._approx is None:
            num = self.num
            self._approx = (sum(map(mul, num, self.field._scaled_powers())),
                            2 * sum(map(abs, num)) + 2)
        return self._approx

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        num = self.num
        if not any(num[1:]):
            return _sgn(num[0])
        s, err = self._scaled()
        if s > err:
            return 1
        if s < -err:
            return -1
        return self._exact_sign()

    def _exact_sign(self) -> int:
        """The certificate behind the filter: refine the field interval until
        the value's enclosure clears zero.

        A nonzero element vanishes at q only when the defining polynomial is
        reducible, and then no refinement decides its sign.  So after
        ``_GCD_ROUNDS`` undecided rounds the element's polynomial is tested
        against the defining one: a common factor with its root in the
        isolating interval raises ReduciblePolynomial."""
        field, rounds = self.field, 0
        while True:
            lo, hi = field.interval()
            vlo, vhi = _poly_over_interval(self.num, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            rounds += 1
            if rounds == _GCD_ROUNDS:
                common = _poly_gcd(field.min_poly, self.num)
                # a factor of min_poly has no root at the interval's ends
                if len(common) > 1 and _sturm_count(common, lo, hi):
                    raise ReduciblePolynomial(
                        f"defining polynomial {list(field.min_poly)} has a factor "
                        f"vanishing at q with the nonzero element {self}")
            field.refine(8)

    def _cmp(self, o: "AlgebraicReal") -> int:
        """Sign of self - o: both scaled sums, cross-multiplied by the other
        denominator, decide unless they are within the summed error."""
        s, e = self._scaled()
        t, u = o._scaled()
        diff = o.den * s - self.den * t
        err = o.den * e + self.den * u
        if diff > err:
            return 1
        if diff < -err:
            return -1
        return (self - o).sign()

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except MixedFields:
            return False
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        num = self.num
        if any(num[1:]):
            return hash((num, self.den))
        # equal to the int or Fraction it coerces from, so hash like it
        return hash(Fraction(num[0], self.den))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- output ----------------------------------------------------------------

    def refined_enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """An enclosure of width at most ``width`` (refines the field interval)."""
        while True:
            vlo, vhi = self.enclosure()
            if vhi - vlo <= width:
                return vlo, vhi
            self.field.refine(8)

    def to_decimal(self, digits: int = 6) -> str:
        """Correctly rounded decimal string with ``digits`` fractional digits
        (round half to even; exact for rational values).

        For an irrational value, the field's scaled powers at p bits give
        S = sum(num[i] * Q[i]) with 2^p * den * value in (S - E, S + E),
        E = 2 * sum(|num[i]|) + 2.  Both ends, times 10^digits over
        den * 2^p, are rounded in integers; rounding is monotone, so when
        they agree that is the value's rounding.  Otherwise p grows by 64,
        which ends because an irrational value is never a tie.  The field's
        isolating interval is not refined."""
        if digits < 0:
            raise ValueError("digits must be >= 0")
        num, den, scale = self.num, self.den, 10**digits
        if not any(num[1:]):
            m = _round_half_even(num[0] * scale, den)
        else:
            err = 2 * sum(map(abs, num)) + 2
            # about 2^-15 of a last digit wide: it rarely straddles a boundary
            p = _precision(scale.bit_length() + err.bit_length() - den.bit_length() + 17)
            while True:
                s = sum(map(mul, num, self.field._scaled_powers(p)))
                d = den << p
                m = _round_half_even((s - err) * scale, d)
                if m == _round_half_even((s + err) * scale, d):
                    break
                p += 64
        text = str(abs(m)).rjust(digits + 1, "0")
        if digits:
            text = f"{text[:-digits]}.{text[-digits:]}"
        return f"-{text}" if m < 0 else text

    def __float__(self) -> float:
        """The nearest float to a value within 2^-60 of this one: the
        field's scaled sum S at p bits, over den * 2^p, with the error
        E / (den * 2^p) <= 2^-60.  The isolating interval is not refined."""
        num, den = self.num, self.den
        if not any(num[1:]):
            return num[0] / den  # int true division rounds correctly
        err = 2 * sum(map(abs, num)) + 2
        # den >= 2^(den.bit_length() - 1) and err < 2^err.bit_length()
        p = _precision(err.bit_length() - den.bit_length() + 61)
        return float(Fraction(sum(map(mul, num, self.field._scaled_powers(p))), den << p))

    def __repr__(self) -> str:
        return f"AlgebraicReal({self!s})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            coeff = "" if (mag == 1 and i > 0) else str(mag)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = f"{coeff}q" if coeff else "q"
            else:
                term = f"{coeff}q^{i}" if coeff else f"q^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _precision(bits: int) -> int:
    """The least multiple of 64 that is at least ``bits`` and 64: scaled
    powers are cached per precision, so values share few tuples."""
    return max(64, -(-bits // 64) * 64)


def _round_half_even(n: int, d: int) -> int:
    """The integer nearest to n/d (d > 0), ties to even."""
    f, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and f & 1):
        f += 1
    return f


def sign(x: AlgebraicReal) -> int:
    """Exact sign of a field element."""
    return x.sign()


def compare(x: AlgebraicReal, y: AlgebraicReal | RationalLike) -> int:
    """Exact three-way comparison: -1, 0, or 1 as x <, ==, > y."""
    o = x._coerce(y)
    if o is None:
        raise TypeError(f"cannot compare AlgebraicReal with {type(y).__name__}")
    return x._cmp(o)


def to_decimal(x: AlgebraicReal, digits: int = 6) -> str:
    """Correctly rounded decimal string of ``x`` (round half to even)."""
    return x.to_decimal(digits)
