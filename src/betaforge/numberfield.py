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
P = FILTER_BITS.  They come from a private copy of the isolating interval,
halved in integers until it brackets every q^i closely enough, so the shared
interval and everything printed from it stay as they are.  Then

    |sum(num[i] * Q[i]) - 2^P * sum(num[i] * q^i)| < 2 * sum(|num[i]|),

so whenever |sum(num[i] * Q[i])| > 2 * sum(|num[i]|) + 2 the sign of the
integer sum is the sign of the element.  That is the filter: integers only,
with a certified error bound.  When the sum is too small to decide, the same
sum is taken at 64 more bits at a time, up to a zero bound: a precision at
which a nonzero value certainly clears the error, so a sum still undecided
there belongs to the value 0 (see ``AlgebraicReal._exact_sign``).

Kernel.  Each field compiles its two hot functions into straight-line code
for its own constants: the orbit step q * num + low, at construction, from
the companion row; and the filter sum with its error bound, on the first
irrational sign, from the scaled powers.  Every orbit walk, product, Horner
pass, inverse and filter reads these two functions.

Decimals.  The same sums at a higher precision P enclose 2^P * den * value in
an integer interval; both ends are rounded half to even, in integers, and P
grows until they agree.  Floats come from the same sums.  No sign, decimal
or float narrows the isolating interval: after construction it stays as
given and certified.

Inverses.  One fraction-free (Bareiss) elimination solves for the inverse in
integers; every division in it is exact, and the result is reduced to the
unique lattice form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Iterable, Sequence


class NotMonic(ValueError):
    """The defining polynomial is not monic."""


class NoRootInInterval(ValueError):
    """The isolating interval contains no root, or no sign change, of the
    polynomial."""


class AmbiguousInterval(ValueError):
    """The isolating interval brackets more than one real root."""


class ReduciblePolynomial(ValueError):
    """The defining polynomial is reducible: it has a rational root, or a
    sign met a nonzero element whose value at q is 0."""


class MixedFields(TypeError):
    """Operands belong to two different BaseField instances."""


RationalLike = int | Fraction

# the rational types whose numerator and denominator are already in lowest
# terms (the denominator positive), read as they are; any other value (a
# bool, str, float or Decimal) is normalized through Fraction first
_LOWEST_TERMS = (int, Fraction)

# bits of the sign filter's scaled powers q^i * 2^P
FILTER_BITS = 128

# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, ascending powers)


def _sgn(r: int) -> int:
    return (r > 0) - (r < 0)


def _poly_at(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_at(coeffs: Sequence[int], m: int, d: int) -> int:
    """Sign of the polynomial at m/d (d > 0): Horner on d^n * p(m/d)."""
    acc, scale = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        scale *= d
        acc = acc * m + c * scale
    return _sgn(acc)


def _poly_over_interval(coeffs: Sequence[int], a: int, b: int, d: int) -> tuple[int, int]:
    """d^n times a conservative enclosure of the degree-n polynomial's range
    over [a/d, b/d] (d > 0): interval Horner, each step scaled by d."""
    vlo, vhi, scale = coeffs[-1], coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        scale *= d
        p0, p1, p2, p3 = vlo * a, vlo * b, vhi * a, vhi * b
        vlo = min(p0, p1, p2, p3) + c * scale
        vhi = max(p0, p1, p2, p3) + c * scale
    return vlo, vhi


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (lead(b) nonzero), the remainder
    stripped of trailing zeros.  Each step first scales by |lead(b)|, so both
    are positive multiples of the rational ones, equal when lead(b) = +-1."""
    a, lead = list(a), b[-1]
    scale, quot = abs(lead), [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if scale != 1:
            a, quot = [scale * c for c in a], [scale * c for c in quot]
        f = a[-1] // lead
        shift = len(a) - len(b)
        quot[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()  # the leading coefficient is now zero
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _sturm_chain(coeffs: Sequence[int]) -> list[list[int]]:
    """The Sturm sequence of an integer polynomial: p, p', then the negated
    pseudo-remainders, each divided by its content (a primitive remainder
    sequence, Collins 1967).  Each member is a positive multiple of the
    classical one over Q; the last is gcd(p, p') up to a constant factor."""
    chain, p = [], list(coeffs)
    while p:
        g = math.gcd(*p)
        chain.append([c // g for c in p])
        if len(chain) == 1:
            p = [k * c for k, c in enumerate(chain[0])][1:]
        else:
            p = [-c for c in _pseudo_divmod(chain[-2], chain[-1])[1]]
    return chain


def _sturm_count(chain: list[list[int]], a: int, b: int, d: int) -> int:
    """Number of distinct real roots in (a/d, b/d] of the first polynomial of
    a Sturm ``chain``, which vanishes at neither end (Sturm's theorem)."""

    def variations(m: int) -> int:
        signs = [s for s in (_sign_at(p, m, d) for p in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return variations(a) - variations(b)


def _sum_source(terms: list[str]) -> str:
    """Source text of the sum of ``terms``, grouped as a balanced tree: the
    compiler nests a chain of additions one level per term, so a long chain
    would exhaust its recursion limit."""
    if len(terms) <= 16:
        return " + ".join(terms)
    mid = len(terms) // 2
    return f"({_sum_source(terms[:mid])}) + ({_sum_source(terms[mid:])})"


def _compiled(name: str, degree: int, params: str, result: str, consts: dict[str, int]):
    """``def name(params)``, which unpacks its first argument ``num`` into
    a0 ... a{degree-1} and returns ``result``.  As in ``dataclasses``, the
    source holds identifiers only: the constants reach the code as the
    closure variables ``consts``, never as text."""
    unpack = ", ".join(f"a{i}" for i in range(degree))
    src = (f"def make({', '.join(consts)}):\n"
           f" def {name}({params}):\n"
           f"  {unpack}, = num\n"
           f"  return {result}\n"
           f" return {name}")
    namespace: dict = {}
    exec(src, {}, namespace)
    return namespace["make"](**consts)


def _compile_step(row: Sequence[int]):
    """The orbit kernel's step for a companion row: ``step(num, low=0)``
    gives the numerators of q * sum(num[i] q^i) + low, a shift with q^degree
    replaced by ``row``, in straight-line code.  A row coefficient 0 or +-1
    costs no multiplication."""
    d = len(row)
    top, terms, consts = f"a{d - 1}", [], {}
    for i, m in enumerate(row):
        below = "low" if i == 0 else f"a{i - 1}"
        if m == 0:
            terms.append(below)
        elif m in (1, -1):
            terms.append(f"{below} {'+' if m == 1 else '-'} {top}")
        else:
            consts[f"r{i}"] = m
            terms.append(f"{below} + {top} * r{i}")
    return _compiled("step", d, "num, low=0", f"({', '.join(terms)},)", consts)


def _compile_filter(powers: Sequence[int]):
    """The sign filter's sum for scaled powers Q: ``filter(num)`` gives
    (sum(num[i] * Q[i]), 2 * sum(|num[i]|) + 2), in straight-line code."""
    d = len(powers)
    total = _sum_source([f"a{i} * Q{i}" for i in range(d)])
    err = _sum_source([f"abs(a{i})" for i in range(d)])
    return _compiled("filter", d, "num", f"({total}, 2 * ({err}) + 2)",
                     {f"Q{i}": Q for i, Q in enumerate(powers)})


def _integer_roots(core: Sequence[int], bound: int) -> list[int]:
    """The integer roots r, |r| <= ``bound``, of a monic squarefree integer
    polynomial ``core``, found without factoring its constant term.

    Take the least modulus l >= 2 at which core' is a unit at every root of
    core mod l (any prime not dividing the nonzero discriminant is one).
    Newton's method lifts each root mod l to the one root mod l^(2^j) above
    it, up to a modulus m > 2 * bound, so an integer root is the residue in
    (-m/2, m/2] of a lift; each such residue is tried exactly."""
    deriv = [k * c for k, c in enumerate(core)][1:]
    ell = 2
    while True:
        roots = [r for r in range(ell) if _poly_at(core, r) % ell == 0]
        if all(math.gcd(_poly_at(deriv, r), ell) == 1 for r in roots):
            break
        ell += 1
    found = []
    for r in roots:
        m = ell
        while m <= 2 * bound:
            m *= m
            r = (r - _poly_at(core, r) * pow(_poly_at(deriv, r), -1, m)) % m
        if r > m // 2:
            r -= m
        if _poly_at(core, r) == 0:
            found.append(r)
    return found


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
    single well-defined real number).  It computes in integers only, on one
    cell (a, b, d) meaning [a/d, b/d], which ``_halved`` bisects.

    The isolating interval stays as construction certified it: signs,
    comparisons, decimals and floats read q through a private copy of the
    cell instead, so ``interval()`` and every printed ``"interval"`` depend
    on the polynomial and the given interval alone (only an explicit
    ``refine`` narrows it).  The field also owns its derived constants, each
    kept in one form: the compiled orbit step ``_step`` (num, low) ->
    q * num + low, built at construction from the companion row, through
    which products reduce; and, each computed on first use, the private
    cell ``_bracket`` (the finest halved so far), the scaled powers at each
    precision asked for (those at FILTER_BITS feed the compiled filter sum
    ``_filter()``), and the domain bounds 1/q, 1/(q(q-1)), 1/(q-1), whose
    scaled sums the bound elements cache themselves.  ``_rules`` holds the
    orbit kernel's region rules by denominator (``words._region_rule``);
    like ``_domain`` it holds elements of the field, so the field is freed
    by the cycle collector.
    ``_roots``, ``_branches``, ``_answers`` and ``_answer_cells`` hold the
    root memo (the last point's root run), the branch and the answer memos
    of ``branching``, which owns their format; they hold no element, so the
    field is freed with them.
    """

    __slots__ = ("min_poly", "degree", "name", "_cell", "_sign_lo", "_step", "_bracket",
                 "_filter_sum", "_fine", "_domain", "_rules", "_roots", "_branches", "_answers",
                 "_answer_cells", "__weakref__")

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
        self._bracket: tuple[int, int, int] | None = None
        self._filter_sum = None
        self._fine: dict[int, tuple[int, ...]] = {}
        self._domain: tuple[AlgebraicReal, AlgebraicReal, AlgebraicReal] | None = None
        self._rules: dict[int, Callable] = {}
        self._roots: dict[tuple[int, ...], tuple] = {}
        self._branches: dict[tuple[int, ...], tuple] = {}
        self._answers: dict[tuple, object] = {}
        self._answer_cells = 0

        lo, hi = Fraction(iso[0]), Fraction(iso[1])
        d = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        if not a < b:
            raise ValueError("isolating interval is empty")

        # Rational-root screen: a rational root of a monic integer polynomial
        # is an integer, a root of its squarefree part p / gcd(p, p'), and
        # below 1 + max |c_i| in absolute value (Cauchy).  gcd(p, p') as the
        # chain's primitive last member has leading coefficient +-1 (Gauss).
        if coeffs[0] == 0:
            raise ReduciblePolynomial("zero constant term: x divides the polynomial")
        chain = _sturm_chain(coeffs)
        quot = _pseudo_divmod(chain[0], chain[-1])[0]
        rational = _integer_roots([c * quot[-1] for c in quot], 1 + max(map(abs, coeffs[:-1])))
        if rational:
            raise ReduciblePolynomial(f"rational root {min(rational, key=lambda r: (abs(r), r < 0))}")

        # Count the roots in [lo, hi] exactly (post-screen neither end is a
        # root); a sign-change grid alone misses roots that share a cell.
        roots = _sturm_count(chain, a, b, d)
        if roots == 0:
            raise NoRootInInterval(f"no root of {coeffs} in [{lo}, {hi}]")
        if roots > 1:
            raise AmbiguousInterval(f"{roots} real roots of {coeffs} in [{lo}, {hi}]")

        # Bracket the root's sign change on a grid over [lo, hi]: point i is
        # (32a + (b - a)i) / 32d.  Grid points are rational, so (post-screen)
        # the polynomial is nonzero at every one of them.
        pts = [32 * a + (b - a) * i for i in range(33)]
        signs = [_sign_at(coeffs, m, 32 * d) for m in pts]
        crossings = [i for i in range(32) if signs[i] * signs[i + 1] < 0]
        if not crossings:  # a root of even multiplicity
            raise NoRootInInterval(f"no sign change of {coeffs} over [{lo}, {hi}]")
        i = crossings[0]
        self._cell, self._sign_lo = (pts[i], pts[i + 1], 32 * d), signs[i]

        # Refine until the derivative is sign-definite on the interval: then
        # the bracketed root is unique and simple.
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        for _ in range(256):
            dlo, dhi = _poly_over_interval(deriv, *self._cell)
            if dlo > 0 or dhi < 0:
                break
            self._cell = self._halved(self._cell)
        else:
            raise AmbiguousInterval("could not certify a simple root by refinement")

        self._step = _compile_step([-c for c in coeffs[:-1]])

    # -- isolating interval ------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        """The isolating interval, as construction certified it unless
        ``refine`` has narrowed it since."""
        a, b, d = self._cell
        return Fraction(a, d), Fraction(b, d)

    def _halved(self, cell: tuple[int, int, int]) -> tuple[int, int, int]:
        """The half of the cell (a, b, d), meaning [a/d, b/d], that holds q,
        by the sign at its midpoint (no rational point is a root)."""
        a, b, d = cell
        if _sign_at(self.min_poly, a + b, 2 * d) == self._sign_lo:
            return a + b, 2 * b, 2 * d
        return 2 * a, a + b, 2 * d

    def refine(self, steps: int = 1) -> tuple[Fraction, Fraction]:
        """Halve the isolating interval ``steps`` times (nothing in the
        package calls this after construction)."""
        for _ in range(steps):
            self._cell = self._halved(self._cell)
        return self.interval()

    # -- sign filter ---------------------------------------------------------

    def _scaled_powers(self, p: int = FILTER_BITS) -> tuple[int, ...]:
        """Integers Q[i] with |Q[i] - q^i * 2^p| < 3/2, for i < degree, once
        per precision p (the sign filter's at FILTER_BITS), from the private
        cell (a, b, d): a copy of the certified cell, halved until it lies on
        one side of 0 and brackets each q^i at most 2^-p wide, (hi^i - lo^i)
        * 2^p <= d^i, so the floored midpoint is within 1/2 + 1.  A bracket
        too wide asks for about as many halvings as its excess has bits."""
        powers = self._fine.get(p)
        if powers is None:
            a, b, d = self._bracket or self._cell
            while True:
                powers, short = [1 << p], int(a < 0 < b)
                for i in range(1, self.degree):
                    lo, hi = sorted((a**i, b**i))
                    di, width = d**i, (hi - lo) << p
                    if width > di:
                        short = max(short, width.bit_length() - di.bit_length() + 1)
                    powers.append(((lo + hi) << p) // (2 * di))
                if not short:
                    break
                for _ in range(short):
                    a, b, d = self._halved((a, b, d))
            self._bracket = (a, b, d)
            powers = self._fine[p] = tuple(powers)
        return powers

    def _filter(self):
        """The sign filter's compiled sum over ``_scaled_powers()``:
        num -> (sum(num[i] * Q[i]), 2 * sum(|num[i]|) + 2); built on first
        use."""
        if self._filter_sum is None:
            self._filter_sum = _compile_filter(self._scaled_powers())
        return self._filter_sum

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

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Iterable[RationalLike]) -> "AlgebraicReal":
        vec = [c if type(c) in _LOWEST_TERMS else Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError(f"coefficient vector longer than degree {self.degree}")
        # the lcm of lowest-terms denominators leaves the lattice form reduced
        den = math.lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        return AlgebraicReal(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def from_rational(self, r: RationalLike) -> "AlgebraicReal":
        if type(r) not in _LOWEST_TERMS:
            r = Fraction(r)
        return AlgebraicReal(self, (r.numerator,) + (0,) * (self.degree - 1), r.denominator)

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
        a, b, d = self._cell
        return f"BaseField({tag}, interval=({a / d:.6g}, {b / d:.6g}))"


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

    Arithmetic is exact.  Signs come from the field's integer filter, at a
    precision that grows up to a zero bound when 128 bits cannot decide; two
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
        # Horner from q^(d-1) down through the orbit step, which reduces q^d
        step, acc = self.field._step, prod[d - 1:]
        for k in range(d - 2, -1, -1):
            acc = step(acc, prod[k])
        return _reduced(self.field, acc, self.den * o.den)

    __rmul__ = __mul__

    def times_q_minus(self, d: int) -> "AlgebraicReal":
        """q*x - d for an integer d: one orbit step, an integer shift plus one
        companion-row reduction; the denominator never grows."""
        field, den = self.field, self.den
        return _reduced(field, field._step(self.num, -d * den), den)

    def inverse(self) -> "AlgebraicReal":
        """Multiplicative inverse, in integers, by one fraction-free
        elimination.  With x = N(q) / den, column j of the matrix M holds the
        coordinates of N(q) * q^j, so y = 1/N(q) solves M y = e_0.  One
        Bareiss pass over [M | e_0], swapping rows at a zero pivot, leaves an
        upper triangular system U y = b whose last pivot D is +-det M.
        Back-substitution then gives z = D * y = +-adj(M) e_0 in integers, so
        each of its divisions is exact, and 1/x = den * z / D."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if self.is_rational():
            return self.field.from_rational(Fraction(self.den, self.num[0]))
        n, step = self.field.degree, self.field._step
        cols = [self.num]
        for _ in range(n - 1):
            cols.append(step(cols[-1]))
        m = [[*r, 0] for r in zip(*cols)]  # [M | e_0], row by row
        m[0][n] = 1
        prev = 1
        for k in range(n):
            rk = m[k]
            if not rk[k]:
                swap = next((i for i in range(k + 1, n) if m[i][k]), None)
                if swap is None:
                    # only possible when the defining polynomial is not irreducible
                    raise ReduciblePolynomial("defining polynomial shares a factor with an element")
                # a swap flips the sign of both D and z, which z / D does not see
                rk, m[k], m[swap] = m[swap], m[swap], rk
            p = rk[k]
            for i in range(k + 1, n):
                ri = m[i]
                f = ri[k]
                for j in range(k + 1, n + 1):
                    ri[j] = (ri[j] * p - f * rk[j]) // prev
            prev = p
        z = [0] * n  # prev is now the last pivot D
        for i in range(n - 1, -1, -1):
            ri = m[i]
            z[i] = (prev * ri[n] - sum(map(mul, ri[i + 1:n], z[i + 1:]))) // ri[i]
        if prev < 0:
            prev, z = -prev, [-v for v in z]
        return _reduced(self.field, [v * self.den for v in z], prev)

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

    def _scaled(self) -> tuple[int, int]:
        """(S, E): S = sum(num[i] * Q[i]) is within E of 2^P * den * value."""
        if self._approx is None:
            self._approx = self.field._filter()(self.num)
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
        """The sign when the filter at FILTER_BITS cannot decide: the same
        sum at 64 more bits at a time, up to a zero bound P0.

        x = sum(num[i] * q^i) is an algebraic integer, since q is one, so a
        nonzero x has a norm of absolute value at least 1.  Every root of the
        defining polynomial is below M = 1 + max |c_i| in absolute value (c_i
        its non-leading coefficients), so every conjugate of x is at most
        T * M^(d-1), with T = sum(|num[i]|) and d the degree.  Hence
        |x| >= (T * M^(d-1))^-(d-1), whether or not the polynomial is
        irreducible, and at P0 = (d-1) * bitlen(T * M^(d-1)) + bitlen(E) + 2
        a nonzero x has a scaled sum more than 3E away from 0.  A sum still
        within E there means x = 0: a nonzero lattice form vanishing at q,
        which only a reducible defining polynomial allows."""
        field, num = self.field, self.num
        total = sum(map(abs, num))
        err = 2 * total + 2
        d = field.degree
        height = 1 + max(map(abs, field.min_poly[:-1]))
        p0 = (d - 1) * (total * height ** (d - 1)).bit_length() + err.bit_length() + 2
        p = FILTER_BITS
        while p < p0:
            p = min(p + 64, p0)
            s = sum(map(mul, num, field._scaled_powers(p)))
            if s > err:
                return 1
            if s < -err:
                return -1
        raise ReduciblePolynomial(
            f"defining polynomial {list(field.min_poly)} has a factor "
            f"vanishing at q with the nonzero element {self}")

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
