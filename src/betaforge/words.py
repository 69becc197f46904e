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

``region`` places a point by its sign and by comparing it with these bounds.
The orbit kernel in ``branching`` places the raw numerators it steps with
``_region_rule``, which compares with the two switch bounds only: every
value the kernel makes lies in the domain.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import ge, gt, le, lt, sub
from typing import Callable, Iterable, Sequence

from .numberfield import AlgebraicReal, BaseField, _reduced


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


def _stream_order(op: Callable[[tuple, tuple], bool]):
    """The comparison ``op`` of two words as digit streams.

    Cut to the shorter preperiod's length n, the two preperiods are prefixes
    of both streams, so where they differ they decide.  Their digits n - 1
    are checked first: when those differ, the whole preperiods differ within
    their first n digits too, and are compared with no slice.  When the cut
    preperiods are equal, past both of them the streams are periodic, with
    periods p and r.  By Fine and Wilf (1965), a word of length
    p + r - gcd(p, r) with periods p and r has period gcd(p, r); so two such
    streams that agree on that many digits agree everywhere, and their first
    digits up to that horizon decide."""

    def compare(self, other):
        if not isinstance(other, PeriodicWord):
            return NotImplemented
        a, b = self.preperiod, other.preperiod
        n = len(a) if len(a) < len(b) else len(b)
        if n and a[n - 1] != b[n - 1]:
            return op(a, b)
        a, b = a[:n], b[:n]
        if a == b:
            p, r = len(self.period), len(other.period)
            h = max(len(self.preperiod), len(other.preperiod)) + p + r - math.gcd(p, r)
            a, b = self.digits(h), other.digits(h)
        return op(a, b)

    return compare


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

    __lt__ = _stream_order(lt)
    __le__ = _stream_order(le)
    __gt__ = _stream_order(gt)
    __ge__ = _stream_order(ge)

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        pre = "".join(str(d) for d in self.preperiod)
        per = "".join(str(d) for d in self.period)
        return f"{pre}({per})*"

    def __repr__(self) -> str:
        return f"PeriodicWord({self!s})"


# ---------------------------------------------------------------------------
# grammar


def _parse_seq(text: str, i: int, depth: int) -> tuple[list[int], list[int] | None, int]:
    digits: list[int] = []
    period: list[int] | None = None
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ")":
            if depth == 0:
                raise WordSyntaxError("unbalanced ')'", i)
            return digits, period, i
        if period is not None:
            raise WordSyntaxError("nothing may follow the infinite tail", i)
        if ch in "01":
            digits.append(int(ch))
            i += 1
        elif ch == "(":
            opened = i
            # returns at its ')': at the end of the text it raises instead
            inner_digits, inner_period, i = _parse_seq(text, i + 1, depth + 1)
            i += 1
            k = 1
            if i < len(text) and text[i] == "^":
                if inner_period is not None:
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
                if inner_period is not None:
                    raise WordSyntaxError("a tail cannot contain another tail", i)
                if not inner_digits:
                    raise WordSyntaxError("empty tail", i)
                i += 1
                period, k = inner_digits, 0
            else:
                period = inner_period
            if len(digits) + len(inner_digits) * k > _MAX_WORD_DIGITS:
                raise WordSyntaxError(f"the word expands to more than {_MAX_WORD_DIGITS} digits",
                                      opened)
            digits.extend(inner_digits * k)
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    if depth > 0:
        raise WordSyntaxError("unclosed '('", len(text))
    return digits, period, i


def parse_word(text: str) -> PeriodicWord:
    """Parse word text: digits 0/1, ``(...)`` grouping, ``(...)^k`` repetition,
    and an optional final ``(...)*`` infinite tail.  Whitespace is ignored.
    A word without an explicit tail ends in the all-zero tail.  Text that
    expands to more than ``_MAX_WORD_DIGITS`` digits raises WordSyntaxError
    before the digits are built."""
    digits, period, _ = _parse_seq(text, 0, 0)
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
    """The value sum(digit_i * q^-i) of the word's stream, exactly.

    With preperiod length n, period length p, P = sum(pre_i * q^(n-i)) and
    A = sum(per_j * q^(p-j)), the value is the closed form

        x = (P * (q^p - 1) + A) / (q^n * (q^p - 1)).

    q is an algebraic integer, so one Horner pass n <- q*n + d over the
    preperiod and then the period (the field's compiled orbit step) yields
    P and H = P * q^p + A as integer numerators, and q^n, q^(n+p) alike: no
    gcd and no element per digit.  Then x = (H - P) / (q^(n+p) - q^n), one
    inverse and one product, reduced to the unique lattice form."""
    step = field._step
    value = (0,) * field.degree
    power = (1,) + value[1:]
    for d in word.preperiod:
        value, power = step(value, d), step(power)
    head, head_power = value, power
    for d in word.period:
        value, power = step(value, d), step(power)
    den = AlgebraicReal(field, tuple(map(sub, power, head_power)), 1)
    return AlgebraicReal(field, tuple(map(sub, value, head)), 1) * den.inverse()


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


# the region rules a field keeps, one per denominator: a run of classify ops
# meets a handful of denominators, a run of queries a new one per op
_RULES_CAP = 16


def _region_rule(field: BaseField, den: int) -> Callable[[Sequence[int]], Region]:
    """The region of sum(num[i] * q^i) / den, as a function of the numerators
    ``num`` for one fixed denominator ``den`` > 0 (the form need not be
    reduced), for values the caller knows to lie in the domain [0, 1/(q-1)]:
    only the switch bounds 1/q and 1/(q(q-1)) are compared.  The field keeps
    each rule it builds under ``den`` (``_rules``) while it holds fewer than
    ``_RULES_CAP``; a full slot still serves what it holds.

    Each bound b = sum(m[i] * q^i) / b.den enters through its scaled sum
    (S, E), which b caches (``_scaled``); their products with ``den`` are
    taken here, once per rule.  The value's own scaled sum s, from the
    field's compiled filter sum, is within e = 2 * sum(|num[i]|) + 2 of its
    true scale, so

        b.den * s - den * S   against   b.den * e + den * E

    decides value - b whenever the difference clears the summed error.  When
    it does not, the reduced element's ``_cmp`` decides: its sign takes the
    scaled sums at a precision that grows up to the zero bound of
    ``AlgebraicReal._exact_sign``, so every answer is certified and none
    narrows the field's isolating interval."""
    locate = field._rules.get(den)
    if locate is not None:
        return locate
    low, switch, _ = field.domain_bounds()
    scaled = field._filter()
    checks = [(b, b.den, *(den * v for v in b._scaled()), below, strict)
              for b, below, strict in ((low, Region.LOW, True), (switch, Region.SWITCH, False))]

    def locate(num: Sequence[int]) -> Region:
        s, e = scaled(num)
        for bound, b_den, b_s, b_e, below, strict in checks:
            diff = b_den * s - b_s
            err = b_den * e + b_e
            if diff > err:
                continue
            if diff < -err:
                return below
            c = _reduced(field, num, den)._cmp(bound)
            if c < 0 or (c == 0 and not strict):
                return below
        return Region.HIGH

    if len(field._rules) < _RULES_CAP:
        field._rules[den] = locate
    return locate


# the region of a point below each of 1/q, 1/(q(q-1)), 1/(q-1) (in order),
# and whether "below" is strict
_SIDES = ((Region.LOW, True), (Region.SWITCH, False), (Region.HIGH, False))


def region(x: AlgebraicReal) -> Region:
    """Which part of the domain [0, 1/(q-1)] the point lies in, or outside
    it.  A negative x is outside; any other is compared with 1/q,
    1/(q(q-1)) and 1/(q-1) in turn by ``_cmp``: the integer filter on the
    scaled sums that x and each bound cache, and the exact sign where the
    filter cannot decide.  No element is built unless the filter fails."""
    bounds = x.field.domain_bounds()  # first: a base outside (1, 2) raises for every x
    if x.sign() < 0:
        return Region.OUTSIDE
    for bound, (below, strict) in zip(bounds, _SIDES):
        c = x._cmp(bound)
        if c < 0 or (c == 0 and not strict):
            return below
    return Region.OUTSIDE


def reflect_point(x: AlgebraicReal) -> AlgebraicReal:
    """The involution x -> 1/(q-1) - x of the domain."""
    _, _, upper = domain_bounds(x.field)
    return upper - x


def reflect_word(word: PeriodicWord) -> PeriodicWord:
    """Digitwise complement; satisfies eval(reflect(w)) = reflect(eval(w))."""
    return word.reflected()
