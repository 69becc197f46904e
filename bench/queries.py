"""CLI lookups: ``eval``, ``region`` and ``orbit`` through ``cli.main(argv)``.

Each op is one in-process ``cli.main`` call with its standard output
captured.  The seed draws the field (q2, qf, golden), the command, the
word, ``--digits`` from {6, 15, 30, 60} and ``--format``.  Orbit lookups
start at the word's value plus one (``--plus-one``), the convention of the
paper's orbit tables; their words begin with 000, which keeps that start
inside the domain [0, 1/(q-1)] of every one of the three bases.

Answers are checked against an evaluation independent of betaforge: the
real root of each minimal polynomial from sympy, and the word's value,
decimals and regions in mpmath at extra precision.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from betaforge import cli, golden_field, q2_field, qf_field

FIELDS = ("q2", "qf", "golden")
DIGITS = (6, 15, 30, 60)
FORMATS = {"eval": ("text", "json"), "region": ("text", "json"), "orbit": ("text", "json", "csv")}
ORBIT_PREFIX = (0, 0, 0)

# minimal polynomials (ascending integer coefficients) and a rational
# interval that isolates the base among their real roots
MIN_POLYS = {
    "q2": ((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))),
    "qf": ((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5))),
    "golden": ((-1, -1, 1), (Fraction(3, 2), Fraction(17, 10))),
}
# decimal digits carried beyond the requested ones by the reference
GUARD_DIGITS = 60


@dataclass(frozen=True)
class Query:
    field: str
    command: str
    digits: int
    fmt: str
    pre: tuple[int, ...]
    per: tuple[int, ...]

    @property
    def plus_one(self) -> bool:
        return self.command == "orbit"

    @property
    def argv(self) -> list[str]:
        word = "".join(map(str, self.pre)) + "(" + "".join(map(str, self.per)) + ")*"
        argv = [self.command, "--field", self.field, "--digits", str(self.digits),
                "--format", self.fmt, word]
        return argv + ["--plus-one"] if self.plus_one else argv


@dataclass(frozen=True)
class Answer:
    code: int
    stdout: str


class Queries:
    block = 50  # queries are independent draws; a block only sets the run's size

    def setup(self) -> None:
        q2_field(), qf_field(), golden_field()

    def inputs(self, seed: int) -> Iterator[Query]:
        rng = random.Random(seed)
        while True:
            command = rng.choice(tuple(FORMATS))
            pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
            per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
            if command == "orbit":
                pre = ORBIT_PREFIX + pre
            yield Query(rng.choice(FIELDS), command, rng.choice(DIGITS),
                        rng.choice(FORMATS[command]), pre, per)

    def label(self, query: Query) -> str:
        return query.command

    def run(self, query: Query) -> Answer:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(query.argv)
        return Answer(code, out.getvalue())

    @staticmethod
    def decided(answer: Answer) -> bool:
        return answer.code == 0

    def check(self, query: Query, answer: Answer) -> str | None:
        ref = reference(query.field, query.digits)
        x = ref.word_value(query.pre, query.per) + (1 if query.plus_one else 0)
        try:
            if query.command == "orbit":
                return _check_orbit(ref, x, query, answer)
            if answer.code != 0:
                return f"exit code {answer.code}"
            return (_check_eval if query.command == "eval" else _check_region)(
                ref, x, query, answer.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output ({type(exc).__name__}: {exc}): {answer.stdout[:200]!r}"


# -- independent reference ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def reference(field: str, digits: int) -> "Reference":
    return Reference(field, digits)


class Reference:
    """Values, decimals and regions in one base at ``digits`` + guard digits."""

    def __init__(self, field: str, digits: int):
        import mpmath
        import sympy

        self.mp = mpmath.mp.clone()
        self.mp.dps = digits + GUARD_DIGITS
        self.digits = digits
        coeffs, (lo, hi) = MIN_POLYS[field]
        x = sympy.Symbol("x")
        (root,) = [r for r in sympy.Poly(coeffs[::-1], x).real_roots() if lo < r < hi]
        self.q = self.mp.mpf(root.evalf(self.mp.dps + 10)._mpf_)
        self.tol = self.mp.mpf(10) ** (-(self.mp.dps - 20))

    def word_value(self, pre, per):
        mp, qi = self.mp, 1 / self.q
        head = mp.fsum(d * qi ** (i + 1) for i, d in enumerate(pre))
        tail = mp.fsum(d * qi ** (i + 1) for i, d in enumerate(per)) / (1 - qi ** len(per))
        return head + qi ** len(pre) * tail

    def rational(self, r: Fraction):
        return self.mp.mpf(r.numerator) / r.denominator

    def poly_value(self, coeffs):
        return self.mp.fsum(self.rational(c) * self.q ** i for i, c in enumerate(coeffs))

    def same(self, a, b) -> bool:
        return abs(a - b) < self.tol

    def decimal(self, v) -> str:
        """``v`` rounded half to even to ``digits`` fractional digits (v >= 0)."""
        scaled = v * self.mp.mpf(10) ** self.digits
        n = int(self.mp.floor(scaled))
        frac = scaled - n
        if abs(frac - self.mp.mpf(1) / 2) < self.tol * 10 ** self.digits:
            raise ArithmeticError("reference too close to a rounding tie")
        n += frac > 0.5
        whole, part = divmod(n, 10 ** self.digits)
        return f"{whole}.{part:0{self.digits}d}"

    def region(self, v) -> str:
        q = self.q
        if v < 0 and not self.same(v, 0):
            return "outside"
        if v < 1 / q and not self.same(v, 1 / q):
            return "low"
        if v <= 1 / (q * (q - 1)) or self.same(v, 1 / (q * (q - 1))):
            return "switch"
        if v <= 1 / (q - 1) or self.same(v, 1 / (q - 1)):
            return "high"
        return "outside"


# -- output checks -------------------------------------------------------------


_TERM = re.compile(r"(?P<c>\d+(?:/\d+)?)?(?P<q>q(?:\^(?P<e>\d+))?)?")


def parse_element(text: str) -> list[Fraction]:
    """Coordinates of the text form of a field element, e.g. ``1/2 - 3q^2``."""
    tokens = text.split(" ")
    signed = [("+", tokens[0])] + list(zip(tokens[1::2], tokens[2::2]))
    coeffs = [Fraction(0)] * 8
    for op, term in signed:
        negative = (op == "-") != term.startswith("-")
        m = _TERM.fullmatch(term.lstrip("-"))
        if not m or not (m["c"] or m["q"]):
            raise ValueError(f"bad term {term!r}")
        c = Fraction(m["c"]) if m["c"] else Fraction(1)
        power = (int(m["e"]) if m["e"] else 1) if m["q"] else 0
        coeffs[power] = -c if negative else c
    return coeffs


def _check_eval(ref, x, query, stdout):
    if query.fmt == "json":
        out = json.loads(stdout)
        coeffs = [Fraction(c) for c in out["coeffs"]]
        poly = tuple(out["field"]["min_poly"])
        lo, hi = (ref.rational(Fraction(b)) for b in out["field"]["interval"])
        if poly != MIN_POLYS[query.field][0]:
            return f"field polynomial {poly}"
        if not lo <= ref.q <= hi:
            return f"field interval [{lo}, {hi}] misses the base"
        decimal = out["decimal"]
    else:
        text, decimal = stdout.rstrip("\n").rsplit(" / ", 1)
        coeffs = parse_element(text)
    if not ref.same(ref.poly_value(coeffs), x):
        return f"coordinates {[str(c) for c in coeffs]} do not give the word's value"
    if decimal != ref.decimal(x):
        return f"decimal {decimal}, expected {ref.decimal(x)}"
    return None


def _check_region(ref, x, query, stdout):
    if query.fmt == "json":
        out = json.loads(stdout)
        if out["decimal"] != ref.decimal(x):
            return f"decimal {out['decimal']}, expected {ref.decimal(x)}"
        region = out["region"]
    else:
        region = stdout.strip()
    return None if region == ref.region(x) else f"region {region}, expected {ref.region(x)}"


def _orbit_rows(query, stdout):
    """(digits, decimals, regions or None, end tag) from any output format."""
    if query.fmt == "json":
        out = json.loads(stdout)
        steps, end = out["steps"], out["end"]
        tag = {"switch": "SWITCH", "unique_tail": f"TAIL {end.get('tail')}",
               "step_limit": "STEP LIMIT"}[end["kind"]]
        return ([s["digit"] for s in steps[:-1]], [s["decimal"] for s in steps],
                [s["region"] for s in steps], tag)
    if query.fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["step", "digit", "decimal", "region"]:
            raise ValueError(f"csv header {rows[0]}")
        rows = rows[1:]
        for i, row in enumerate(rows):
            if int(row[0]) != i:
                raise ValueError(f"csv row {i} numbered {row[0]}")
        return [int(r[1]) for r in rows[:-1]], [r[2] for r in rows], [r[3] for r in rows], None
    body, tag = stdout.rstrip("\n").rsplit(" [", 1)
    tokens = body.split(" ")
    return ([int(t.removeprefix("→")) for t in tokens[1::2]], tokens[0::2], None,
            tag.removesuffix("]"))


def _check_orbit(ref, x, query, answer):
    digits, decimals, regions, tag = _orbit_rows(query, answer.stdout)
    if len(decimals) != len(digits) + 1:
        return f"{len(decimals)} orbit values for {len(digits)} digits"
    values = [x]
    for d in digits:
        values.append(ref.q * values[-1] - d)
    for i, v in enumerate(values):
        expect = ref.region(v)
        if decimals[i] != ref.decimal(v):
            return f"orbit value {i}: decimal {decimals[i]}, expected {ref.decimal(v)}"
        if regions is not None and regions[i] != expect:
            return f"orbit value {i}: region {regions[i]}, expected {expect}"
        if i < len(digits) and (expect, digits[i]) not in (("low", 0), ("high", 1)):
            return f"orbit value {i} in region {expect} was given the forced digit {digits[i]}"
    end = values[-1]
    if answer.code == 3:
        return None if tag in (None, "STEP LIMIT") else f"exit code 3 with end {tag!r}"
    if answer.code != 0:
        return f"exit code {answer.code}"
    if ref.region(end) == "switch":
        return None if tag in (None, "SWITCH") else f"end {tag!r} at a switch point"
    cycle = _forced_cycle(ref, end)
    if cycle is None:
        return f"orbit stops at {decimals[-1]}: no switch point and no forced cycle"
    tail = "TAIL (" + "".join(map(str, cycle)) + ")*"
    return None if tag in (None, tail) else f"end {tag!r}, expected {tail}"


def _forced_cycle(ref, start, limit=64):
    """Digits of the forced orbit of ``start`` until it first returns, or None.

    ``limit`` keeps the error growth (q^limit) inside the guard digits."""
    v, digits = start, []
    for _ in range(limit):
        region = ref.region(v)
        if region not in ("low", "high"):
            return None
        digits.append(int(region == "high"))
        v = ref.q * v - digits[-1]
        if ref.same(v, start):
            return digits
    return None


WORKLOADS = {"queries": Queries()}
