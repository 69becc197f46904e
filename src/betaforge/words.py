"""Eventually periodic binary words and the expansion dynamics they feed.

A word is an infinite binary sequence with a finite preperiod and a
repeating period, written in a small grammar: digits 0/1, grouping with
parentheses, ``(...)^k`` for k-fold repetition, and a final ``(...)*`` for
the infinite tail.  Words are kept in canonical form (primitive period,
shortest preperiod), so two words are equal exactly when they denote the
same digit stream.

The value of a word in a base field is sum(digit_i * q^-i).  The expansion
dynamics on the domain [0, 1/(q-1)] are t0(x) = q*x and t1(x) = q*x - 1;
the region of a point decides which branches keep it inside the domain:

    low    [0, 1/q)                  only t0 stays
    switch [1/q, 1/(q(q-1))]         both t0 and t1 stay (branch point)
    high   (1/(q(q-1)), 1/(q-1)]     only t1 stays

One rule tells low, switch and high apart: ``_region_rule``, which compares
the raw numerators of a value over one denominator with the two switch
bounds only, through integer thresholds it takes once per denominator.
The orbit kernel in ``branching`` places the values it steps with it,
since every value the kernel makes lies in the domain, wherever its
certified double tracker cannot decide.  ``region`` places any element: a
point below 0 or above 1/(q-1) is outside, and any other is placed by its
cached filter sum against the same rule's thresholds.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .numberfield import FILTER_BITS, AlgebraicReal, BaseField, _compile_place, _reduced


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyWordError(ValueError):
    """The text denotes no digits at all."""


class Region(Enum):
    LOW = "low"
    SWITCH = "switch"
    HIGH = "high"
    OUTSIDE = "outside"

    def __str__(self) -> str:
        return self.value


# the most digits (preperiod and period) one word's text may expand to: a
# repeat count multiplies a group's digits, so a short text could otherwise
# ask for any number of them
_MAX_WORD_DIGITS = 1 << 16
_BITS = frozenset((0, 1))
_INT = frozenset((int,))


def _validate_digits(digits: Iterable[int]) -> tuple[int, ...]:
    """The digits as a tuple of the ints 0 and 1.  Values equal to 0 or 1
    (a bool, 1.0) become those ints; anything else raises ValueError, so 0.5
    or "1" is rejected, not truncated."""
    out = tuple(digits)
    if not _BITS.issuperset(out):
        raise ValueError(f"digits must be 0 or 1, got {out}")
    if not _INT.issuperset(map(type, out)):
        out = tuple(map(int, out))
    return out


@functools.total_ordering
class PeriodicWord:
    """An eventually periodic binary sequence in canonical form.

    Canonical means the period is primitive (not a power of a shorter word)
    and the preperiod is as short as possible (its last digit differs from
    the period's last digit).  A finite digit string is represented with the
    all-zero tail, period "0".
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: Iterable[int] = (), period: Iterable[int] = ()):
        pre = _validate_digits(preperiod)
        per = _validate_digits(period) or (0,)

        # primitive period: the shortest root of a power divides n, so a
        # proper one has k <= n/2
        n = len(per)
        for k in range(1, n // 2 + 1):
            if n % k == 0 and per[:k] * (n // k) == per:
                per, n = per[:k], k
                break

        # shortest preperiod: absorb the trailing digits that match the period
        # read backwards, whole periods first; absorbing r digits rotates the
        # period right by r mod n
        m = len(pre)
        while m >= n and pre[m - n:m] == per:
            m -= n
        r = 0
        while r < m and pre[m - 1 - r] == per[n - 1 - r]:
            r += 1

        self.preperiod = pre[:m - r]
        self.period = per[n - r:] + per[:n - r]

    # -- digit access --------------------------------------------------------

    def digit(self, i: int) -> int:
        """Digit at 0-based position ``i`` of the infinite stream."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def digits(self, n: int) -> tuple[int, ...]:
        """The first ``n`` digits of the stream."""
        pre, per = self.preperiod, self.period
        k = n - len(pre)
        if k <= 0:
            return pre[:max(n, 0)]
        return pre + (per * -(-k // len(per)))[:k]

    def is_zero(self) -> bool:
        return not self.preperiod and self.period == (0,)

    # -- structure -----------------------------------------------------------

    def with_prefix(self, digits: Iterable[int]) -> "PeriodicWord":
        """The word obtained by prepending ``digits`` to this stream."""
        pre = _validate_digits((*digits, *self.preperiod))
        return self._prefixed(pre[:len(pre) - len(self.preperiod)])

    def _prefixed(self, digits: tuple[int, ...]) -> "PeriodicWord":
        """``with_prefix`` for a tuple of the ints 0 and 1, taken as it is.

        A nonempty preperiod keeps its last digit, which differs from the
        period's last, so the prefixed word is canonical as it stands; only
        an empty preperiod lets the period absorb trailing digits."""
        if not digits:
            return self
        if not self.preperiod:
            return PeriodicWord(digits, self.period)
        word = object.__new__(PeriodicWord)
        word.preperiod, word.period = digits + self.preperiod, self.period
        return word

    def shifted(self) -> "PeriodicWord":
        """The word with its first digit removed."""
        if self.preperiod:
            return PeriodicWord(self.preperiod[1:], self.period)
        return PeriodicWord((), self.period[1:] + self.period[:1])

    def reflected(self) -> "PeriodicWord":
        """Digitwise complement (0 <-> 1)."""
        return PeriodicWord(
            tuple(1 - d for d in self.preperiod), tuple(1 - d for d in self.period)
        )

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PeriodicWord):
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __lt__(self, other):
        """Whether this word's digit stream precedes the other's
        lexicographically; ``functools.total_ordering`` derives ``<=``,
        ``>`` and ``>=`` from it.

        Cut to the shorter preperiod's length n, the two preperiods are
        prefixes of both streams, so where they differ they decide.  Their
        digits n - 1 are checked first: when those differ, the whole
        preperiods differ within their first n digits too, and are compared
        with no slice.  When the cut preperiods are equal, past both of them
        the streams are periodic, with periods p and r.  By Fine and Wilf
        (1965), a word of length p + r - gcd(p, r) with periods p and r has
        period gcd(p, r); so two such streams that agree on that many digits
        agree everywhere, and their first digits up to that horizon decide."""
        if not isinstance(other, PeriodicWord):
            return NotImplemented
        a, b = self.preperiod, other.preperiod
        n = len(a) if len(a) < len(b) else len(b)
        if n and a[n - 1] != b[n - 1]:
            return a < b
        a, b = a[:n], b[:n]
        if a == b:
            p, r = len(self.period), len(other.period)
            h = max(len(self.preperiod), len(other.preperiod)) + p + r - math.gcd(p, r)
            a, b = self.digits(h), other.digits(h)
        return a < b

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        pre = "".join(str(d) for d in self.preperiod)
        per = "".join(str(d) for d in self.period)
        return f"{pre}({per})*"

    def __repr__(self) -> str:
        return f"PeriodicWord({self!s})"


# ---------------------------------------------------------------------------
# grammar


def parse_word(text: str) -> PeriodicWord:
    """Parse word text: digits 0/1, ``(...)`` grouping, ``(...)^k`` repetition,
    and an optional final ``(...)*`` infinite tail.  Whitespace is ignored.
    A word without an explicit tail ends in the all-zero tail.  Text that
    expands to more than ``_MAX_WORD_DIGITS`` digits raises WordSyntaxError
    before the digits are built.

    The text is read in one left-to-right scan.  ``digits`` and ``period``
    are the innermost open sequence's digits and tail; ``stack`` holds, for
    each open group, the position of its '(' and the digits of the sequence
    it interrupts, whose tail is still None.  Groups nest to any depth."""
    digits: list[int] = []
    period: list[int] | None = None
    stack: list[tuple[int, list[int]]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == ")":
            if not stack:
                raise WordSyntaxError("unbalanced ')'", i)
            # close the group: its sequence is ``inner``, and a plain group
            # hands its tail, if any, to the enclosing sequence
            inner, (opened, digits) = digits, stack.pop()
            i += 1
            k = 1
            if i < len(text) and text[i] == "^":
                if period is not None:
                    raise WordSyntaxError("a repeated group cannot contain a tail", i)
                i += 1
                start = i
                while i < len(text) and "0" <= text[i] <= "9":
                    i += 1
                if start == i:
                    raise WordSyntaxError("'^' must be followed by a repeat count", start)
                count = text[start:i].lstrip("0")
                if not count:
                    raise WordSyntaxError("repeat count must be at least 1", start)
                # a count with more digits than the cap is above it, and so is the
                # number its leading digits make: only those are converted
                k = int(count[:len(str(_MAX_WORD_DIGITS)) + 1])
            elif i < len(text) and text[i] == "*":
                if period is not None:
                    raise WordSyntaxError("a tail cannot contain another tail", i)
                if not inner:
                    raise WordSyntaxError("empty tail", i)
                i += 1
                period, k = inner, 0
            if len(digits) + len(inner) * k > _MAX_WORD_DIGITS:
                raise WordSyntaxError(f"the word expands to more than {_MAX_WORD_DIGITS} digits",
                                      opened)
            digits.extend(inner * k)
        elif period is not None:
            raise WordSyntaxError("nothing may follow the infinite tail", i)
        elif ch in "01":
            digits.append(int(ch))
            i += 1
        elif ch == "(":
            stack.append((i, digits))
            digits = []
            i += 1
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    if stack:
        raise WordSyntaxError("unclosed '('", len(text))
    if not digits and period is None:
        raise EmptyWordError("word text contains no digits")
    if len(digits) + len(period or ()) > _MAX_WORD_DIGITS:
        raise WordSyntaxError(f"the word expands to more than {_MAX_WORD_DIGITS} digits", 0)
    return PeriodicWord(tuple(digits), tuple(period or ()))


# ---------------------------------------------------------------------------
# values and dynamics


def domain_bounds(field: BaseField) -> tuple[AlgebraicReal, AlgebraicReal, AlgebraicReal]:
    """(1/q, 1/(q(q-1)), 1/(q-1)): switch interval endpoints and the domain
    top.  The field computes them once and owns them; a base outside (1, 2)
    raises ValueError here, so everything that needs the domain refuses it."""
    return field.domain_bounds()


def eval_word(word: PeriodicWord, field: BaseField) -> AlgebraicReal:
    """The value sum(digit_i * q^-i) of the word's stream, exactly, in one
    backward pass.

    With preperiod length n, period length p and A = sum(per_j * q^(p-j)),
    the period's own stream has the value T = A / (q^p - 1), and the word's
    is x = sum(pre_i * q^-i) + q^-n * T.  q is an algebraic integer, so one
    Horner pass over the period through the field's compiled orbit step
    yields A as integer numerators; T is A times 1/(q^p - 1), which the field
    keeps per period length (``_period_inverse``).  Then the preperiod folds
    from its last digit to its first, y <- (pre_i + y) / q, through the
    compiled division ``_unstep``: adding a digit adds the denominator to
    the constant numerator, and each division scales the denominator by
    |c0|, which is 1 for a unit base.  One reduction at the end gives the
    unique lattice form: no gcd, no element and no inverse per digit."""
    step = field._step
    num = (0,) * field.degree
    for d in word.period:
        num = step(num, d)
    den = 1
    if any(num):
        period = AlgebraicReal(field, num, 1) * _period_inverse(field, len(word.period))
        num, den = period.num, period.den
    unstep, scale = field._unstep, abs(field.min_poly[0])
    num = list(num)
    for d in reversed(word.preperiod):
        if d:
            num[0] += den
        num = unstep(num)
        den *= scale
    return _reduced(field, num, den)


# the period inverses 1/(q^p - 1) a field keeps, one per period length: a
# word's period may have up to _MAX_WORD_DIGITS digits
_INVERSES_CAP = 16


def _period_inverse(field: BaseField, p: int) -> AlgebraicReal:
    """1/(q^p - 1).  The field keeps each one under p (``_period_inverses``)
    while it holds fewer than ``_INVERSES_CAP``; a full slot still serves
    what it holds."""
    inverse = field._period_inverses.get(p)
    if inverse is None:
        inverse = (field.q**p - 1).inverse()
        if len(field._period_inverses) < _INVERSES_CAP:
            field._period_inverses[p] = inverse
    return inverse


def t0(x: AlgebraicReal) -> AlgebraicReal:
    """Branch reading digit 0: x -> q*x."""
    return x.times_q_minus(0)


def t1(x: AlgebraicReal) -> AlgebraicReal:
    """Branch reading digit 1: x -> q*x - 1."""
    return x.times_q_minus(1)


def apply_digits(x: AlgebraicReal, digits: Iterable[int]) -> AlgebraicReal:
    """Apply the branches named by ``digits`` in order (no domain checks)."""
    for d in _validate_digits(digits):
        x = x.times_q_minus(d)
    return x


# the region rules a field keeps, one per denominator.  Every benchmark
# workload meets a handful of denominators: 1,000 queries of seed 3101 met
# 11 (field, denominator) pairs, 5 in q2, 3 in qf and 3 in golden, and the
# classify and verify-quick runs no more, so no field fills its 16 rules
_RULES_CAP = 16


def _sieved(s: int, e: int, lo0: int, hi0: int, lo1: int, hi1: int) -> Region | None:
    """The region a filter sum s with error e gives against a rule's
    thresholds (see ``_region_rule``), or None where they cannot decide:
    the compiled placement's test, on a sum already taken."""
    return (Region.LOW if s + e < lo0 else None if s - e <= hi0 else Region.SWITCH if s + e < lo1
            else Region.HIGH if s - e > hi1 else None)


class _Rule(NamedTuple):
    """One denominator's region rule (see ``_region_rule``), which is also
    the orbit kernel for that denominator (``branching._run``): ``locate``,
    the thresholds it tests the filter sum s against, ``scale`` c, the
    double nearest 1/(den * 2^P), which turns s into the value's double,
    ``cap``, the filter errors e below which the kernel's tracker starts
    from (s, e), ``exact``, the placement by the reduced element's
    ``_cmp``, and the ``field`` and ``den`` it places values of."""

    locate: Callable[[Sequence[int]], Region]
    lo0: int
    hi0: int
    lo1: int
    hi1: int
    scale: float
    cap: int
    exact: Callable[[Sequence[int]], Region]
    field: BaseField
    den: int


def _region_rule(field: BaseField, den: int) -> _Rule:
    """The region of sum(num[i] * q^i) / den, as a function ``locate`` of the
    numerators ``num`` for one fixed denominator ``den`` > 0 (the form need
    not be reduced), for values the caller knows to lie in the domain
    [0, 1/(q-1)]: only the switch bounds 1/q and 1/(q(q-1)) are compared.
    The field keeps each rule it builds under ``den`` (``_rules``), at most
    ``_RULES_CAP`` of them: the first ``_RULES_CAP`` - 1 stay, and the last
    slot holds the newest rule past them, so a second fetch for the
    denominator just met, as ``branching._start`` makes after ``region``,
    reads the rule built by the first.

    The value's scaled sum s, from the field's filter sum, is within
    e = 2 * sum(|num[i]|) + 2 of 2^P * den * value, and each bound
    b = sum(m[i] * q^i) / b.den has its scaled sum (S, E), which b caches
    (``_scaled``).  The value is certainly below b when
    b.den * (s + e) < den * (S - E), and above it when
    b.den * (s - e) > den * (S + E).  s and e are integers, so for one den
    these are s + e < lo and s - e > hi with the integer thresholds

        lo = ceil(den * (S - E) / b.den),   hi = floor(den * (S + E) / b.den),

    taken here, once per rule.  The field's compiled placement
    (``_compile_place``, built with its first rule, as are the field's
    tracker constants ``_tracking``) tests s against both bounds'
    thresholds in ``locate``; ``_sieved`` is the same test on a sum
    already taken.  Where they cannot decide, the reduced element's
    ``_cmp`` does (``exact``): its sign takes the scaled sums at a
    precision that grows up to the zero bound of
    ``AlgebraicReal._exact_sign``, so every answer is certified and none
    narrows the field's isolating interval.

    The tracker's start x̂ = s * c is within e * c of the value plus
    rounding (see ``branching._run``) when e < cap = den * 2^P / 8,
    so that e * c < 1/8.  For a denominator with den * 2^P of 900 bits or
    more, cap is 0 and no tracker starts: below that, c is a normal double
    and s, at most 2^900 * (T + 1), converts to one for every base with
    q - 1 above 2^-120."""
    rule = field._rules.get(den)
    if rule is not None:
        return rule
    low, switch, _ = field.domain_bounds()
    place = field._placement
    if place is None:
        place = field._placement = _compile_place(field._scaled_powers(), Region.LOW,
                                                  Region.SWITCH, Region.HIGH)
        field._tracking()
    thresholds = []
    for bound in (low, switch):
        s, e = bound._scaled()
        thresholds += (-(den * (e - s) // bound.den), den * (s + e) // bound.den)
    lo0, hi0, lo1, hi1 = thresholds

    def exact(num: Sequence[int]) -> Region:
        x = _reduced(field, num, den)
        return (Region.LOW if x._cmp(low) < 0 else Region.SWITCH if x._cmp(switch) <= 0
                else Region.HIGH)

    def locate(num: Sequence[int]) -> Region:
        return place(num, lo0, hi0, lo1, hi1) or exact(num)

    scaled = den << FILTER_BITS
    rule = _Rule(locate, lo0, hi0, lo1, hi1, 1 / scaled,
                 scaled >> 3 if scaled.bit_length() < 900 else 0, exact, field, den)
    if len(field._rules) == _RULES_CAP:
        field._rules.popitem()  # the newest rule takes the last slot
    field._rules[den] = rule
    return rule


def region(x: AlgebraicReal) -> Region:
    """Which part of the domain [0, 1/(q-1)] the point lies in, or outside
    it.  A negative x, or one above 1/(q-1) by ``_cmp``, is outside; any
    other is placed by the orbit kernel's ``_region_rule`` for x's
    denominator: x's cached scaled sum, which ``_cmp`` took, against the
    rule's thresholds, with the exact comparison where they cannot
    decide."""
    field = x.field
    top = field.domain_bounds()[2]  # first: a base outside (1, 2) raises for every x
    if x.sign() < 0 or x._cmp(top) > 0:
        return Region.OUTSIDE
    _, lo0, hi0, lo1, hi1, _, _, exact, _, _ = _region_rule(field, x.den)
    s, e = x._scaled()
    return _sieved(s, e, lo0, hi0, lo1, hi1) or exact(x.num)


def reflect_point(x: AlgebraicReal) -> AlgebraicReal:
    """The involution x -> 1/(q-1) - x of the domain."""
    return domain_bounds(x.field)[2] - x


def reflect_word(word: PeriodicWord) -> PeriodicWord:
    """Digitwise complement; satisfies eval(reflect(w)) = reflect(eval(w))."""
    return word.reflected()
