"""Exact arithmetic in Q(q) for a fixed real algebraic base q.

A base is a monic integer polynomial with a rational interval that isolates
exactly one real root (``BaseField``), and an element is integer numerators
over one positive denominator, in lowest terms (``AlgebraicReal``).  Every
sign is exact: an integer filter with a certified error decides it, at a
precision that grows up to a zero bound (``AlgebraicReal._exact_sign``).
The one decision a double takes part in is the orbit kernel's region of a
step, and only inside a proved error bound (``BaseField._tracking``).  Each
field compiles its hot functions into straight-line code for its own
constants.  The design is set out in README's *How comparisons work*.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache, wraps
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence


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


class Region(Enum):
    """Where a point lies in the domain [0, 1/(q-1)] (see ``words``)."""

    LOW = "low"
    SWITCH = "switch"
    HIGH = "high"
    OUTSIDE = "outside"

    def __str__(self) -> str:
        return self.value


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
    """Source text of the sum of ``terms``, each signed as ``_times`` writes
    it ("+ x" or "- x"), grouped as a balanced tree: the compiler nests a
    chain of additions one level per term, so a long chain would exhaust
    its recursion limit."""
    if len(terms) <= 16:
        return " ".join(terms).removeprefix("+ ")
    mid = len(terms) // 2
    return f"({_sum_source(terms[:mid])}) + ({_sum_source(terms[mid:])})"


def _compiled(name: str, degree: int, params: str, result: str, consts: dict[str, object],
              body: Sequence[str] = ()):
    """``def name(params)``, which unpacks its first argument ``num`` into
    a0 ... a{degree-1}, runs the statements ``body`` and returns ``result``.
    As in ``dataclasses``, the source holds identifiers only: the constants
    reach the code as the closure variables ``consts``, never as text."""
    unpack = ", ".join(f"a{i}" for i in range(degree))
    src = (f"def make({', '.join(consts)}):\n"
           f" def {name}({params}):\n"
           f"  {unpack}, = num\n"
           + "".join(f"  {line}\n" for line in body) +
           f"  return {result}\n"
           f" return {name}")
    namespace: dict = {}
    exec(src, {}, namespace)
    return namespace["make"](**consts)


def _times(var: str, m: int, name: str, consts: dict[str, int]) -> str:
    """The source of the term + m * ``var`` of a compiled sum: nothing for
    m = 0, a sign for m = +-1, which costs no multiplication, and otherwise
    a product by the closure constant ``name``, which joins ``consts``."""
    if m == 0:
        return ""
    if m in (1, -1):
        return f"{'+' if m == 1 else '-'} {var}"
    consts[name] = m
    return f"+ {var} * {name}"


def _compile_step(row: Sequence[int]):
    """The orbit kernel's step for a companion row: ``step(num, low=0)``
    gives the numerators of q * sum(num[i] q^i) + low, a shift with q^degree
    replaced by ``row``, in straight-line code.  A row coefficient 0 or +-1
    costs no multiplication."""
    d = len(row)
    top, terms, consts = f"a{d - 1}", [], {}
    for i, m in enumerate(row):
        below = "low" if i == 0 else f"a{i - 1}"
        terms.append(f"{below} {_times(top, m, f'r{i}', consts)}".rstrip())
    return _compiled("step", d, "num, low=0", f"({', '.join(terms)},)", consts)


def _compile_unstep(coeffs: Sequence[int]):
    """Division by q for a monic defining polynomial with c0 = coeffs[0]
    nonzero: ``unstep(num)`` gives, as a list, the numerators of
    |c0| * sum(num[i] q^i) / q, in straight-line code.  From
    q^-1 = -(c1 + c2 q + ... + q^(d-1)) / c0, coordinate j is
    |c0| * num[j+1] - sgn(c0) * c(j+1) * num[0]; when c0 = +-1 the scale is
    1 and costs nothing, and as in the step a factor 0 or +-1 costs no
    multiplication."""
    d, scale, sign = len(coeffs) - 1, abs(coeffs[0]), _sgn(coeffs[0])
    terms, consts = [], {} if scale == 1 else {"k": scale}
    for j in range(d):
        head = "" if j == d - 1 else f"a{j + 1}" if scale == 1 else f"a{j + 1} * k"
        terms.append(f"{head} {_times('a0', -sign * coeffs[j + 1], f'u{j}', consts)}".strip())
    return _compiled("unstep", d, "num", f"[{', '.join(terms)}]", consts)


def _compile_mul(row: Sequence[int]):
    """The product for a companion row: ``mul(num, onum)`` gives the
    numerators of sum(num[i] q^i) * sum(onum[j] q^j), in straight-line code.
    Coefficient k of the schoolbook product is the convolution of num[i]
    and onum[k - i]; the upper ones, k >= degree d, are folded from the top
    down through q^k = sum(row[i] q^(k-d+i)), so that t{k} holds
    coefficient k with every higher one folded in, and the d lower ones,
    with theirs, are the product.  As in the step a row coefficient 0 or
    +-1 costs no multiplication."""
    d = len(row)
    body, out, consts = [f"{', '.join(f'b{j}' for j in range(d))}, = onum"], [], {}
    for k in range(2 * d - 2, -1, -1):
        terms = [f"+ a{i} * b{k - i}" for i in range(max(0, k - d + 1), min(k, d - 1) + 1)]
        for m in range(max(d, k + 1), min(k + d + 1, 2 * d - 1)):
            terms.append(_times(f"t{m}", row[k - m + d], f"r{k - m + d}", consts))
        total = _sum_source([term for term in terms if term])
        if k >= d:
            body.append(f"t{k} = {total}")
        else:
            out.append(total)
    return _compiled("mul", d, "num, onum", f"({', '.join(reversed(out))},)", consts, body)


def _filter_source(powers: Sequence[int]) -> tuple[str, str, dict[str, object]]:
    """The source of the sign filter's sum s = sum(num[i] * Q[i]) and of its
    error e = 2 * sum(|num[i]|) + 2 for scaled powers Q, and the constants
    Q{i} they read."""
    d = len(powers)
    return (_sum_source([f"+ a{i} * Q{i}" for i in range(d)]),
            f"2 * ({_sum_source([f'+ abs(a{i})' for i in range(d)])}) + 2",
            {f"Q{i}": Q for i, Q in enumerate(powers)})


def _compile_filter(powers: Sequence[int]):
    """The sign filter's sum for scaled powers Q: ``filter(num)`` gives
    (s, e), in straight-line code (see ``_filter_source``)."""
    total, err, consts = _filter_source(powers)
    return _compiled("filter", len(powers), "num", f"({total}, {err})", consts)


def _compile_place(powers: Sequence[int]):
    """The orbit kernel's placement for scaled powers Q, in straight-line
    code: ``place(num, lo0, hi0, lo1, hi1)`` takes the filter's (s, e) of
    ``num`` (see ``_filter_source``) and gives LOW when s + e < lo0, None
    unless s - e > hi0, then SWITCH when s + e < lo1, HIGH when
    s - e > hi1, and None otherwise: None where the filter cannot decide
    against the thresholds (lo0, hi0) of one bound or (lo1, hi1) of the
    next."""
    total, err, consts = _filter_source(powers)
    return _compiled("place", len(powers), "num, lo0, hi0, lo1, hi1",
                     f"LOW if (s := {total}) + (e := {err}) < lo0 else None if s - e <= hi0"
                     f" else SWITCH if s + e < lo1 else HIGH if s - e > hi1 else None",
                     {"LOW": Region.LOW, "SWITCH": Region.SWITCH, "HIGH": Region.HIGH, **consts})


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


# the region rules a field keeps, one per denominator.  Every benchmark
# workload meets a handful of denominators: 1,000 queries of seed 3101 met
# 11 (field, denominator) pairs, 5 in q2, 3 in qf and 3 in golden, and the
# classify and verify-quick runs no more, so no field fills its 16 rules
_RULES_CAP = 16
# the period inverses 1/(q^p - 1) a field keeps, one per period length: a
# word's period may have up to 2^16 digits
_INVERSES_CAP = 16


class _Rule(NamedTuple):
    """One denominator's region rule (see ``BaseField._rule``), which is
    also the orbit kernel for that denominator (``branching._run``):
    ``locate``, ``sieve``, the same placement from a filter sum (s, e) the
    caller already took, ``scale`` c, the double nearest 1/(den * 2^P),
    which turns s into the value's double, ``cap``, the filter errors e
    below which the kernel's tracker starts from (s, e), and the ``field``
    and ``den`` it places values of."""

    locate: Callable[[Sequence[int]], Region]
    sieve: Callable[[int, int, Sequence[int]], Region]
    scale: float
    cap: int
    field: BaseField
    den: int


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
    single well-defined real number).  It works in integers only (README's
    *Private interval copy*).

    Signs, comparisons, decimals and floats read q through a private copy
    of the certified interval (``_scaled_powers``), so ``interval()`` and
    every printed ``"interval"`` depend on the polynomial and the given
    interval alone (only an explicit ``refine`` narrows it).  The field
    keeps each derived constant in one slot, computed at construction or on
    first use; ``_memo`` is ``branching``'s (see ``branching._Memo``).
    """

    __slots__ = ("min_poly", "degree", "name", "_root_bound", "_cell", "_sign_lo", "_step",
                 "_unstep", "_mul", "_bracket", "_filter_sum", "_placement", "_tracker", "_fine",
                 "_domain", "_rules", "_period_inverses", "_memo", "__weakref__")

    def __init__(
        self,
        min_poly: Iterable[int],
        iso: tuple[RationalLike | str, RationalLike | str],
        name: str | None = None,
    ):
        raw = tuple(min_poly)
        coeffs = tuple(map(int, raw))
        if coeffs != raw:  # 2.0 and Fraction(2) become 2; 1.9 is refused, not truncated
            raise ValueError(f"coefficients must be integers, got {raw}")
        if len(coeffs) < 3:
            raise ValueError("defining polynomial must have degree >= 2")
        if coeffs[-1] != 1:
            raise NotMonic(f"leading coefficient is {coeffs[-1]}, expected 1")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        self.name = name
        self._bracket: tuple[int, int, int] | None = None
        self._mul = self._filter_sum = self._placement = self._memo = None
        self._tracker: tuple | None = None
        self._fine: dict[int, tuple[int, ...]] = {}
        self._domain: tuple[AlgebraicReal, AlgebraicReal, AlgebraicReal] | None = None
        self._rules: dict[int, _Rule] = {}
        self._period_inverses: dict[int, AlgebraicReal] = {}

        lo, hi = Fraction(iso[0]), Fraction(iso[1])
        d = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        if not a < b:
            raise ValueError("isolating interval is empty")

        # Rational-root screen: a rational root of a monic integer polynomial
        # is an integer, a root of its squarefree part p / gcd(p, p'), and
        # below the Cauchy bound 1 + max |c_i| in absolute value.  gcd(p, p')
        # as the chain's primitive last member has leading coefficient +-1
        # (Gauss).
        if coeffs[0] == 0:
            raise ReduciblePolynomial("zero constant term: x divides the polynomial")
        self._root_bound = 1 + max(map(abs, coeffs[:-1]))
        chain = _sturm_chain(coeffs)
        quot = _pseudo_divmod(chain[0], chain[-1])[0]
        rational = _integer_roots([c * quot[-1] for c in quot], self._root_bound)
        if rational:
            raise ReduciblePolynomial(f"rational root {min(rational, key=lambda r: (abs(r), r < 0))}")

        # Count the roots in [lo, hi] exactly (post-screen neither end is a
        # root): a sign change alone misses roots that come in pairs.
        roots = _sturm_count(chain, a, b, d)
        if roots == 0:
            raise NoRootInInterval(f"no root of {coeffs} in [{lo}, {hi}]")
        if roots > 1:
            raise AmbiguousInterval(f"{roots} real roots of {coeffs} in [{lo}, {hi}]")

        # The one root changes the sign between the ends unless its
        # multiplicity is even.  Halving keeps a cell's ends in the form
        # (2^k a + (b - a)i) / 2^k d, so five halvings leave the cell of the
        # 32-point grid over [lo, hi] that holds the root.
        self._sign_lo = _sign_at(coeffs, a, d)
        if _sign_at(coeffs, b, d) == self._sign_lo:
            raise NoRootInInterval(f"no sign change of {coeffs} over [{lo}, {hi}]")
        self._cell = (a, b, d)
        for _ in range(5):
            self._cell = self._halved(self._cell)

        # Refine until the derivative is sign-definite on the interval: then
        # the bracketed root is unique and simple.  The chain's second member
        # is p' over its positive content, of the same sign everywhere.
        for _ in range(256):
            dlo, dhi = _poly_over_interval(chain[1], *self._cell)
            if dlo > 0 or dhi < 0:
                break
            self._cell = self._halved(self._cell)
        else:
            raise AmbiguousInterval("could not certify a simple root by refinement")

        self._step = _compile_step([-c for c in coeffs[:-1]])
        self._unstep = _compile_unstep(coeffs)

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

    def _product(self):
        """The compiled product (see ``_compile_mul``), built on first use:
        its source grows as the square of the degree (README's *Compiled
        kernel*)."""
        if self._mul is None:
            self._mul = _compile_mul([-c for c in self.min_poly[:-1]])
        return self._mul

    # -- sign filter ---------------------------------------------------------

    def _scaled_powers(self, p: int = FILTER_BITS) -> tuple[int, ...]:
        """Integers Q[i] with |Q[i] - q^i * 2^p| < 3/2, for i < degree, once
        per precision p (the sign filter's at FILTER_BITS), from the private
        cell (a, b, d): a copy of the certified cell, first clamped to
        [-M, M] with M = 1 + max |c_i| (no root lies beyond, so the sign at
        its lower end stays ``_sign_lo``), then halved until it lies on one
        side of 0 and brackets each q^i at most 2^-p wide, (hi^i - lo^i)
        * 2^p <= d^i, so the floored midpoint is within 1/2 + 1.  A bracket
        too wide asks for about as many halvings as its excess has bits."""
        powers = self._fine.get(p)
        if powers is None:
            if self._bracket is None:
                a, b, d = self._cell
                m = self._root_bound * d
                self._bracket = (max(a, -m), min(b, m), d)
            a, b, d = self._bracket
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

    def _tracking(self) -> tuple:
        """The orbit kernel's float constants (see ``branching._run``),
        computed on first use: (q̂, q⁺, κ, a0, a1, b0, b1, above_phi).

        q̂ is the double nearest Q[1] / 2^P, and |q̂ - q| <= δ, with δ taken
        exactly from |Q[1] - q * 2^P| < 3/2.  q⁺ >= q_hi * (1 + 2^-50), q_hi
        that bound's upper end, and κ >= δ * B + 2^-48 * (q̂ * B + 1), with
        B = T + 1 over T's upper end, T = 1/(q-1); both are rounded upward.
        [a0, a1] holds 1/q and [b0, b1] holds 1/(q(q-1)), each bound's
        scaled-sum enclosure widened by a relative 2^-50 and rounded outward,
        so that a rounded x̂ + ε below a0 puts x below 1/q, and likewise at
        each end.  Each is a ratio of integers, rounded once.
        ``above_phi`` is b1 < 1, which certifies 1/(q(q-1)) < 1, so q > φ,
        with no exact comparison: then for every switch point s, q * s lies
        in [1, T], above 1/(q(q-1)), and q * s - 1 in [0, (2-q)/(q-1)],
        below 1/q, since both strict inequalities are q^2 - q - 1 > 0; so a
        walk starts those branches in HIGH and LOW without placing them.
        At q = φ they are equalities, and q * (1/q) = 1 is a switch point;
        there, below φ, and wherever [b0, b1] holds 1, the flag is off and
        a walk places its branch starts, which is always exact."""
        if self._tracker is None:
            low, switch, upper = self.domain_bounds()
            p, wide = FILTER_BITS, 1 << 50
            q1 = self._scaled_powers()[1]
            q = q1 / (1 << p)  # int true division rounds to nearest
            a, b = q.as_integer_ratio()  # b is a power of 2 below 2^p
            delta = abs(2 * q1 - a * ((2 << p) // b)) + 3  # 2^(p+1) * δ
            s, e = upper._scaled()
            reach, scale = s + e + (upper.den << p), upper.den << p  # B = reach / scale
            consts = [q, _float_up((2 * q1 + 3) * (wide + 1), wide << p + 1),
                      _float_up(delta * reach * b + ((a * reach + b * scale) << p - 47),
                                scale * b << p + 1)]
            for bound in (low, switch):
                s, e = bound._scaled()
                consts += (-_float_up((e - s) * (wide - 1), bound.den * wide << p),
                           _float_up((s + e) * (wide + 1), bound.den * wide << p))
            self._tracker = (*consts, consts[-1] < 1.0)
        return self._tracker

    # -- derived constants -----------------------------------------------------

    def domain_bounds(self) -> tuple["AlgebraicReal", "AlgebraicReal", "AlgebraicReal"]:
        """(1/q, 1/(q(q-1)), 1/(q-1)): switch interval endpoints and the
        domain top, computed once.  Raises ValueError unless 1 < q < 2, the
        bases in which these bounds describe expansions."""
        if self._domain is None:
            # q is neither 1 nor 2 (the rational-root screen), so a certified
            # cell inside [1, 2] or wholly beyond it decides; only a cell that
            # straddles 1 or 2 needs the exact comparison
            a, b, d = self._cell
            q = self.q
            if not (d <= a and b <= 2 * d) and (b <= d or a >= 2 * d or not 1 < q < 2):
                raise ValueError("base q is outside (1, 2): expansions need 1 < q < 2")
            upper = self.one / (q - 1)
            switch_lo = self.one / q
            self._domain = (switch_lo, switch_lo * upper, upper)
        return self._domain

    def _rule(self, den: int) -> _Rule:
        """The region of sum(num[i] * q^i) / den, as a function ``locate``
        of the numerators ``num`` for one fixed denominator ``den`` > 0 (the
        form need not be reduced), for values the caller knows to lie in
        the domain [0, 1/(q-1)]: only the switch bounds 1/q and 1/(q(q-1))
        are compared.  ``locate`` tests the filter sum against integer
        thresholds taken once per rule (derived in README's *Orbits over one
        denominator*), and the reduced element's ``_cmp`` decides where they
        cannot, so every answer is certified; ``sieve(s, e, num)`` places
        the same way from the sum (s, e) of ``num`` the caller already
        took, so no other module reads a threshold.  The field keeps
        each rule it builds under ``den`` (``_rules``), at most
        ``_RULES_CAP`` of them: the first ``_RULES_CAP`` - 1 stay, and the
        last slot holds the newest rule past them, so a second fetch for the
        denominator just met, as ``branching._start`` makes after
        ``words.region``, reads the rule built by the first.

        The tracker starts only from a sum whose e is below
        cap = den * 2^P / 8, so that e * c < 1/8.  For a denominator with
        den * 2^P of 900 bits or more, cap is 0 and no tracker starts: below
        that, c is a normal double and s, at most 2^900 * (T + 1), converts
        to one for every base with q - 1 above 2^-120."""
        rule = self._rules.get(den)
        if rule is not None:
            return rule
        low, switch, _ = self.domain_bounds()
        place = self._placement
        if place is None:
            self._tracking()
            place = self._placement = _compile_place(self._scaled_powers())
        (s0, e0), (s1, e1) = low._scaled(), switch._scaled()
        lo0, hi0 = -(den * (e0 - s0) // low.den), den * (s0 + e0) // low.den
        lo1, hi1 = -(den * (e1 - s1) // switch.den), den * (s1 + e1) // switch.den

        def exact(num: Sequence[int]) -> Region:
            x = _reduced(self, num, den)
            return (Region.LOW if x._cmp(low) < 0 else Region.SWITCH if x._cmp(switch) <= 0
                    else Region.HIGH)

        def sieve(s: int, e: int, num: Sequence[int]) -> Region:
            return (Region.LOW if s + e < lo0 else None if s - e <= hi0 else Region.SWITCH
                    if s + e < lo1 else Region.HIGH if s - e > hi1 else None) or exact(num)

        def locate(num: Sequence[int]) -> Region:
            return place(num, lo0, hi0, lo1, hi1) or exact(num)

        scaled = den << FILTER_BITS
        rule = _Rule(locate, sieve, 1 / scaled, scaled >> 3 if scaled.bit_length() < 900 else 0,
                     self, den)
        if len(self._rules) == _RULES_CAP:
            self._rules.popitem()  # the newest rule takes the last slot
        self._rules[den] = rule
        return rule

    def _period_inverse(self, p: int) -> "AlgebraicReal":
        """1/(q^p - 1).  The field keeps each one under p
        (``_period_inverses``) while it holds fewer than ``_INVERSES_CAP``;
        a full slot still serves what it holds."""
        inverse = self._period_inverses.get(p)
        if inverse is None:
            inverse = (self.q**p - 1).inverse()
            if len(self._period_inverses) < _INVERSES_CAP:
                self._period_inverses[p] = inverse
        return inverse

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


def _float_up(n: int, d: int) -> float:
    """The least double at or above n/d (d > 0); -_float_up(-n, d) is the
    greatest at or below it, since rounding to nearest is symmetric."""
    f = n / d  # int true division rounds to nearest
    a, b = f.as_integer_ratio()
    return f if a * d >= n * b else math.nextafter(f, math.inf)


def _reduced(field: BaseField, num: Sequence[int], den: int) -> "AlgebraicReal":
    """The element sum(num[i] q^i) / den (den > 0) in lowest lattice terms."""
    g = math.gcd(den, *num)
    if g != 1:
        return AlgebraicReal(field, tuple(n // g for n in num), den // g)
    return AlgebraicReal(field, tuple(num), den)


def _coerced(method: Callable) -> Callable:
    """``method(self, o)`` as an operator of AlgebraicReal: an element of
    the same field is the operand ``o`` as it is, an int or a Fraction
    becomes one (see ``AlgebraicReal._coerce``), an element of another
    field raises MixedFields, and any other operand returns NotImplemented,
    so Python tries the reflected operator or raises TypeError."""

    @wraps(method)
    def operator(self, other):
        if other.__class__ is AlgebraicReal and other.field is self.field:
            return method(self, other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return method(self, o)

    return operator


class AlgebraicReal:
    """An element of Q(q) in lattice form: integer numerators ``num`` over
    the power basis 1, q, ..., q^(degree-1) and one positive denominator
    ``den``, reduced so that gcd(num..., den) = 1.

    Arithmetic and signs are exact, and two elements are equal exactly
    when their lattice forms coincide.  Rationals and ints mix freely with
    elements of a field; elements of two different fields do not
    (MixedFields).
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

    @_coerced
    def __add__(self, o):
        a, b = self.den, o.den
        if a == b:
            return _reduced(self.field, [x + y for x, y in zip(self.num, o.num)], a)
        return _reduced(self.field, [x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    @_coerced
    def __sub__(self, o):
        a, b = self.den, o.den
        if a == b:
            return _reduced(self.field, [x - y for x, y in zip(self.num, o.num)], a)
        return _reduced(self.field, [x * b - y * a for x, y in zip(self.num, o.num)], a * b)

    __rsub__ = _coerced(lambda self, o: o - self)

    def __neg__(self):
        return AlgebraicReal(self.field, tuple(-a for a in self.num), self.den)

    @_coerced
    def __mul__(self, o):
        field = self.field
        return _reduced(field, field._product()(self.num, o.num), self.den * o.den)

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

    __truediv__ = _coerced(lambda self, o: self * o.inverse())
    __rtruediv__ = _coerced(lambda self, o: o * self.inverse())

    def __pow__(self, n: int):
        """x^n by squaring from the top bit down, on numerators: one
        reduction at the end."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.field.one
        product, num = self.field._product(), self.num
        acc = num
        for bit in bin(n)[3:]:
            acc = product(acc, acc)
            if bit == "1":
                acc = product(acc, num)
        return _reduced(self.field, acc, self.den**n)

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
        defining polynomial is below the field's Cauchy bound
        M = 1 + max |c_i| in absolute value (c_i its non-leading
        coefficients), so every conjugate of x is at most T * M^(d-1), with
        T = sum(|num[i]|) and d the degree.  Hence |x| >= (T * M^(d-1))^-(d-1),
        whether or not the polynomial is irreducible, and at
        P0 = (d-1) * bitlen(T * M^(d-1)) + bitlen(E) + 2, E = 2T + 2 the
        filter's error (``_scaled``), a nonzero x has a scaled sum more than
        3E away from 0.  A sum still within E there means x = 0: a nonzero
        lattice form vanishing at q, which only a reducible defining
        polynomial allows."""
        field, num = self.field, self.num
        err = self._scaled()[1]
        d = field.degree
        m = field._root_bound
        p0 = (d - 1) * ((err // 2 - 1) * m ** (d - 1)).bit_length() + err.bit_length() + 2
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
        if other.__class__ is not AlgebraicReal or other.field is not self.field:
            try:
                other = self._coerce(other)
            except MixedFields:
                return False
            if other is None:
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        num = self.num
        if any(num[1:]):
            return hash((num, self.den))
        # equal to the int or Fraction it coerces from, so hash like it
        return hash(Fraction(num[0], self.den))

    __lt__ = _coerced(lambda self, o: self._cmp(o) < 0)
    __le__ = _coerced(lambda self, o: self._cmp(o) <= 0)
    __gt__ = _coerced(lambda self, o: self._cmp(o) > 0)
    __ge__ = _coerced(lambda self, o: self._cmp(o) >= 0)

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
