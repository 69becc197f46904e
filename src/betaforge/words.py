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

``region`` places any element: a point below 0 or above 1/(q-1) is
outside, and any other is placed by the field's region rule for its
denominator (``BaseField._rule``), the rule the orbit kernel in
``branching`` steps with.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

from .numberfield import AlgebraicReal, BaseField, Region, _reduced, _sieved


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyWordError(ValueError):
    """The text denotes no digits at all."""


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
    yields A as integer numerators; T is A times 1/(q^p - 1), which the
    field keeps per period length (``BaseField._period_inverse``).  Then the
    preperiod folds from its last digit to its first, y <- (pre_i + y) / q,
    through the compiled division ``_unstep``: adding a digit adds the
    denominator to the constant numerator, and each division scales the
    denominator by |c0|, which is 1 for a unit base.  One reduction at the
    end gives the unique lattice form: no gcd, no element and no inverse
    per digit."""
    step = field._step
    num = (0,) * field.degree
    for d in word.period:
        num = step(num, d)
    den = 1
    if any(num):
        period = AlgebraicReal(field, num, 1) * field._period_inverse(len(word.period))
        num, den = period.num, period.den
    unstep, scale = field._unstep, abs(field.min_poly[0])
    num = list(num)
    for d in reversed(word.preperiod):
        if d:
            num[0] += den
        num = unstep(num)
        den *= scale
    return _reduced(field, num, den)


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


def region(x: AlgebraicReal) -> Region:
    """Which part of the domain [0, 1/(q-1)] the point lies in, or outside
    it.  A negative x, or one above 1/(q-1) by ``_cmp``, is outside; any
    other is placed by the field's region rule for x's denominator
    (``BaseField._rule``): x's cached scaled sum, which ``_cmp`` took,
    against the rule's thresholds, with the exact comparison where they
    cannot decide."""
    top = x.field.domain_bounds()[2]  # first: a base outside (1, 2) raises for every x
    if x.sign() < 0 or x._cmp(top) > 0:
        return Region.OUTSIDE
    _, lo0, hi0, lo1, hi1, _, _, exact, _, _ = x.field._rule(x.den)
    s, e = x._scaled()
    return _sieved(s, e, lo0, hi0, lo1, hi1) or exact(x.num)


def reflect_point(x: AlgebraicReal) -> AlgebraicReal:
    """The involution x -> 1/(q-1) - x of the domain."""
    return domain_bounds(x.field)[2] - x


def reflect_word(word: PeriodicWord) -> PeriodicWord:
    """Digitwise complement; satisfies eval(reflect(w)) = reflect(eval(w))."""
    return word.reflected()
