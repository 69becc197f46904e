"""Verification suite.

Each check recomputes a documented quantity with exact arithmetic and
compares it against the frozen reference data in :mod:`betaforge.fixtures`,
or asserts an exact algebraic relation outright.  A check returns a
:class:`CheckResult`; a failing check carries the first counterexample
found in its witness text.  ``run_all`` executes a profile of checks and
returns the results ordered by check id.

Conventions shared by all checks:

* decimal table cells are matched exactly within +/-1e-6 (one unit in the
  sixth decimal place), computed by rational arithmetic, never by floats;
* "the quartic base" is the root of x^4 = 2x^2 + x + 1 in (1, 2) and
  "the companion base" the root of x^4 = x^3 + x^2 + 1;
* orbit rows start at (word value + 1) and iterate the forced map until
  the branching region is reached.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .branching import (
    SwitchHit,
    UniqueTail,
    bfs_expansions,
    build_branch_graph,
    classify,
    count_expansions,
    deterministic_run,
    enumerate_expansions,
    viable_prefix_counts,
)
from .numberfield import AlgebraicReal, q2_field, qf_field, golden_field, to_decimal
from .words import (
    PeriodicWord,
    Region,
    apply_digits,
    domain_bounds,
    eval_word,
    parse_word,
    reflect_point,
    reflect_word,
    region,
    t1,
)

PASS = "pass"
FAIL = "fail"

# check id -> (the name of its check function, the names of the arguments
# run_all passes it), in the suite's own order; filled by ``_check``, and
# run_all looks each function up by name when its check runs
_PLAN: dict[str, tuple[str, tuple[str, ...]]] = {}

# profile -> (k_max, j_max), held in fixtures so that the command line's
# parser reads it without loading the suite
PROFILES = fixtures.PROFILES

# tolerance for six-decimal table cells: one unit in the last place
_CELL_TOL = Fraction(1, 10**6)
# tolerance for five-decimal prose values
_PROSE_TOL = Fraction(1, 10**5)
# exploration caps for the informational quartic-base reading (frozen so
# the reported lower bound is deterministic)
_INFO_CAPS = {"max_steps": 250, "max_nodes": 64}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    witness: str
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def record(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


class _Failure(Exception):
    """First counterexample found by a check body."""

    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


def _check(*check_ids: str, params: tuple[str, ...] = ()):
    """Make a check of a body that returns its witness text or raises
    ``_Failure``: the check times the body and returns a CheckResult, FAIL
    with the failure's witness if the body raised it.  Each of
    ``check_ids`` joins ``_PLAN`` with ``params``, the names of the
    arguments ``run_all`` passes: a profile bound, ``k_max`` or ``j_max``,
    or ``check_id``, the id being run.  A check entered under several ids
    takes its id as its one argument."""

    def enter(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                status, witness = PASS, body(*args, **kwargs)
            except _Failure as exc:
                status, witness = FAIL, exc.witness
            # one id, or the one argument of a check entered under several
            (check_id,) = check_ids if len(check_ids) == 1 else (*args, *kwargs.values())
            return CheckResult(check_id, status, witness, time.perf_counter() - start)

        check.__signature__ = inspect.signature(body).replace(return_annotation="CheckResult")
        for check_id in check_ids:
            _PLAN[check_id] = (body.__name__, params)
        return check

    return enter


def _require(cond: bool, witness: str) -> None:
    """Fail with a constant witness.  A witness that formats a value is
    raised by the check itself, behind its condition, so a passing check
    never formats it."""
    if not cond:
        raise _Failure(witness)


def _within(x: AlgebraicReal, cell: str, tol: Fraction = _CELL_TOL) -> bool:
    """Exact test |x - cell| <= tol in the ambient field."""
    return abs(x - Fraction(cell)) <= tol


def _value(text: str, field, plus: int = 0) -> AlgebraicReal:
    """The value of a word, plus ``plus``."""
    x = eval_word(parse_word(text), field)
    return x + plus if plus else x


def _orbit(text: str, field):
    """The forced run from (word value + 1)."""
    return deterministic_run(_value(text, field, 1), max_steps=500)


def _specials(field):
    """The two double-expansion branch values."""
    return tuple(eval_word(w, field) for w in _branch_words())


def _branch_words() -> tuple[PeriodicWord, PeriodicWord]:
    """The branch-value words EPS1 and EPS3, parsed from the fixtures."""
    return parse_word(fixtures.EPS1), parse_word(fixtures.EPS3)


def _branch_end(out, specials, label: str, interval=None) -> AlgebraicReal:
    """The switch point a forced run ended on.  Fails unless the run reached
    the branching region away from both double-expansion values and, given
    an interval (lo, hi), at a point in (lo, hi]."""
    if not isinstance(out.end, SwitchHit):
        raise _Failure(f"{label}: orbit did not reach the branching region "
                       f"({type(out.end).__name__})")
    v = out.end.value
    if region(v) is not Region.SWITCH:
        raise _Failure(f"{label}: final value left the branching region")
    if v in specials:
        raise _Failure(f"{label}: final value {to_decimal(v)} is a double-expansion value")
    if interval is not None and not interval[0] < v <= interval[1]:
        raise _Failure(f"{label}: final value {to_decimal(v, 7)} outside (q-1, T1(U)]")
    return v


def _tail_interval(field, specials, label: str, boundary: str, deeper: str):
    """Certify the tail interval (q-1, T1(U)], U = (boundary) + 1, of a
    family past its last tabulated row, and return its two ends: q-1 lies
    strictly inside the branching region and above the first
    double-expansion value, T1(U) strictly between q-1 and both the region
    ceiling and the second double-expansion value, and the family's values
    decrease in k (the word ``deeper`` is the next member)."""
    e1, e3 = specials
    lo, hi, _ = domain_bounds(field)
    bm1 = field.q - 1
    u = _value(boundary, field)
    t1u = t1(u + 1)
    _require(lo < bm1 < hi, f"{label}: q-1 not strictly inside the branching region")
    _require(e1 < bm1, f"{label}: first branch value not strictly below q-1")
    _require(bm1 < t1u, f"{label}: tail interval empty")
    _require(t1u < hi, f"{label}: T1(U) not strictly below the region ceiling")
    if not t1u < e3:
        raise _Failure(f"{label}: T1(U) {to_decimal(t1u, 7)} not below the second branch value")
    _require(_value(deeper, field) < u, f"{label}: values do not decrease in k")
    return bm1, t1u


def _sextic_sign(q: AlgebraicReal, base: str) -> None:
    """The sign witness sign(q^6 - q^5 - 2q^4 + q^2 + q + 1) = -1."""
    s = (q**6 - q**5 - 2 * q**4 + q**2 + q + 1).sign()
    if s != -1:
        raise _Failure(f"sign(q^6-q^5-2q^4+q^2+q+1) = {s} in the {base}, expected -1")


def _targets(q: AlgebraicReal) -> tuple[AlgebraicReal, AlgebraicReal]:
    """The two values the orbit identities collapse the families to."""
    target_a = (q - 1) / (q**3 * (q**2 - 1)) + 1 / (q**2 - 1)
    target_b = q / (q**2 - 1) + (1 - q) / (q**3 * (q**2 - 1))
    return target_a, target_b


# ---------------------------------------------------------------------------
# constants


@_check("constants")
def check_constants() -> str:
    """Base constants: decimal prints, defining relations, and the sign of
    q^6 - q^5 - 2q^4 + q^2 + q + 1 in the quartic base."""
    q2, qf, gold = q2_field(), qf_field(), golden_field()
    q, f, g = q2.q, qf.q, gold.q

    for base, x, digits, expected in (("quartic base", q, 15, fixtures.Q2_DECIMALS_15),
                                      ("companion base", f, 5, fixtures.QF_DECIMALS_5)):
        got = to_decimal(x, digits)
        if got != expected:
            raise _Failure(f"{base} prints {got}, expected {expected}")

    for zero, relation in ((q**4 - (2 * q**2 + q + 1), "quartic base fails x^4 = 2x^2 + x + 1"),
                           (f**4 - (f**3 + f**2 + 1), "companion base fails x^4 = x^3 + x^2 + 1"),
                           (f**3 - (2 * f**2 - f + 1), "companion base fails x^3 = 2x^2 - x + 1"),
                           (g**2 - (g + 1), "golden base fails x^2 = x + 1")):
        _require(zero.is_zero(), relation)

    _sextic_sign(q, "quartic base")

    lo, hi, _ = domain_bounds(q2)
    for end, x, cell in (("lower", lo, fixtures.SWITCH_LO_6), ("upper", hi, fixtures.SWITCH_HI_6)):
        if not _within(x, cell):
            raise _Failure(f"branching region {end} end {to_decimal(x)} != {cell}")

    return (f"quartic base {fixtures.Q2_DECIMALS_15}; companion base {fixtures.QF_DECIMALS_5}; "
            f"defining relations exact; sign witness -1; "
            f"branching region [{to_decimal(lo)}, {to_decimal(hi)}]")


# ---------------------------------------------------------------------------
# the two double-expansion branch values


@_check("two-point")
def check_two_point() -> str:
    """The only two branching-region values with exactly two expansions,
    their word pairs, and the reflection pairing between them."""
    q2 = q2_field()
    e1, e3 = _branch_words()
    words = [e1, parse_word(fixtures.EPS2), e3, parse_word(fixtures.EPS4)]
    values = []
    for name, pair, cell in (("first", words[:2], fixtures.EPS1_VALUE_6),
                             ("second", words[2:], fixtures.EPS3_VALUE_6)):
        x, x2 = (eval_word(w, q2) for w in pair)
        if x != x2:
            raise _Failure(f"{pair[0]} and {pair[1]} differ: "
                           f"{to_decimal(x, 9)} vs {to_decimal(x2, 9)}")
        if region(x) is not Region.SWITCH:
            raise _Failure(f"{to_decimal(x)} not in the branching region")
        if not _within(x, cell):
            raise _Failure(f"{name} value prints {to_decimal(x)}, expected {cell}")
        c = count_expansions(x)
        if c != c.finite(2):
            raise _Failure(f"count at {name} value: {c}, expected Finite(2)")
        _require(sorted(enumerate_expansions(x)) == sorted(pair),
                 f"enumerated expansions of the {name} value are not the stated pair")
        _require(viable_prefix_counts(x, 40)[-1] == 2,
                 f"prefix oracle at depth 40 != 2 ({name} value)")
        values.append(x)
    a, b = values
    w1, w2, w3, w4 = words

    _require(reflect_word(w1) == w4, "reflection does not pair the outer words")
    _require(reflect_word(w2) == w3, "reflection does not pair the inner words")
    _require(reflect_point(a) == b, "reflection does not exchange the two values")

    # the unique-neighbour identities behind the two-point claim: each pair
    # (y, y + 1) consists of points with a single expansion
    for y, y_plus_1 in (("0000(10)*", "1(10)*"), ("00(10)*", "111(10)*")):
        _require(_value(y, q2, 1) == _value(y_plus_1, q2), f"({y}) + 1 != ({y_plus_1})")
        for text in (y, y_plus_1):
            c = count_expansions(_value(text, q2))
            if c != c.finite(1):
                raise _Failure(f"{text} is not uniquely expandable: {c}")

    return (f"values {to_decimal(a)} and {to_decimal(b)}, both Finite(2); "
            f"reflection pairing and unique-neighbour identities exact")


# ---------------------------------------------------------------------------
# counting family in the companion base


def _family_member(k: int) -> PeriodicWord:
    """The word 1 (0000)^(k-1) 0 (10)* whose value has exactly k expansions
    in the companion base."""
    return PeriodicWord((1,) + (0, 0, 0, 0) * (k - 1) + (0,), (1, 0))


@_check("counts-family", params=("k_max",))
def check_counts_family(k_max: int) -> str:
    """Exact expansion counts k = 1..k_max in the companion base, plus the
    countably infinite point 1/q and its first six expansions."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    qf = qf_field()
    q = qf.q
    lo, _, _ = domain_bounds(qf)

    for k in range(1, k_max + 1):
        x = eval_word(_family_member(k), qf)
        c = count_expansions(x)
        if c != c.finite(k):
            raise _Failure(f"k={k}: classified {c}, expected Finite({k})")
        depth = max(40, 4 * (k - 1) + 8)
        got = viable_prefix_counts(x, depth)[-1]
        if got != k:
            raise _Failure(f"k={k}: prefix oracle at depth {depth} gives {got}")
        if k >= 2 and x <= lo:
            raise _Failure(f"k={k}: member value {to_decimal(x)} not above 1/q, "
                           "the first digit is not forced")

    for k, expected in ((1, ("(10)*",)), (3, fixtures.X3_EXPANSIONS)):
        got = tuple(str(w) for w in enumerate_expansions(eval_word(_family_member(k), qf)))
        if got != expected:
            raise _Failure(f"k={k} expansion list {list(got)}, expected {list(expected)}")

    # exact identity forcing the digit split: 1/q = 1/q^2 + 1/(q^3(q-1))
    _require((1 / q) == (1 / q**2 + 1 / (q**3 * (q - 1))),
             "identity 1/q = 1/q^2 + 1/(q^3(q-1)) fails in the companion base")
    _sextic_sign(q, "companion base")

    xa = _value(fixtures.ALEPH0_WORD, qf)
    _require(xa == lo, "the countably infinite point is not 1/q")
    ca = count_expansions(xa)
    if str(ca) != "CountablyInfinite":
        raise _Failure(f"{fixtures.ALEPH0_WORD} classified {ca}, expected CountablyInfinite")
    six, _complete = bfs_expansions(xa, max_count=6)
    got_six = tuple(str(w) for w in six)
    if got_six != fixtures.ALEPH0_FIRST_SIX:
        raise _Failure(f"first six expansions {got_six}")

    # the same word read in the quartic base, reported but never asserted
    info = count_expansions(_value(fixtures.ALEPH0_WORD, q2_field()), **_INFO_CAPS)

    return (f"Finite(k) for k=1..{k_max} with matching prefix oracle; "
            f"1/q is CountablyInfinite with the six stated expansions; "
            f"quartic-base reading (informational): {info}")


# ---------------------------------------------------------------------------
# iterate tables


@_check("T1", "T2", "T3", "T4", params=("check_id",))
def check_table(table_id: str) -> str:
    """Reproduce one iterate table row by row at +/-1e-6."""
    if table_id not in fixtures.TABLES:
        raise ValueError(f"unknown table {table_id!r}")
    q2 = q2_field()
    specials = _specials(q2)
    table = getattr(fixtures, fixtures.TABLES[table_id])
    n_cells = 0
    for word_text, cells in table:
        row = f"{table_id} row {word_text}"
        out = _orbit(word_text, q2)
        if cells == fixtures.UNIQUE:
            if not isinstance(out.end, UniqueTail):
                raise _Failure(f"{row}: expected a unique tail, got {type(out.end).__name__}")
            # the run starts at the row's value
            if viable_prefix_counts(out.orbit[0], 40)[-1] != 1:
                raise _Failure(f"{row}: prefix oracle at depth 40 != 1")
            continue
        _branch_end(out, specials, row)
        if len(out.orbit) != len(cells):
            raise _Failure(f"{row}: {len(out.orbit)} iterates, table lists {len(cells)}")
        for col, (v, cell) in enumerate(zip(out.orbit, cells)):
            if not _within(v, cell):
                raise _Failure(f"{row} column {col}: "
                               f"computed {to_decimal(v, 7)}, table says {cell}")
        n_cells += len(cells)
    return f"{len(table)} rows, {n_cells} iterates matched at +/-1e-6"


# ---------------------------------------------------------------------------
# no third expansion: the alternating family


@_check("no-triple")
def check_no_triple() -> str:
    """Rows k = 1..6 of the alternating family miss both double-expansion
    values, and the k >= 7 tail maps into an interval that excludes them --
    all as exact comparisons."""
    q2 = q2_field()
    specials = _specials(q2)

    for k in range(1, 7):
        out = _orbit("0" * k + "(01)*", q2)
        if not isinstance(out.end, UniqueTail):
            _branch_end(out, specials, f"k={k}")

    # for k >= 7 the final iterate lies in (q-1, T1(U)], U = (0^6(01)*) + 1
    tail = _tail_interval(q2, specials, "k>=7", "000000(01)*", "0000000(01)*")
    for k in (7, 8, 9):
        _branch_end(_orbit("0" * k + "(01)*", q2), specials, f"k={k}", tail)

    e1, e3 = specials
    return (f"rows k=1..6 miss both branch values; tail interval "
            f"({to_decimal(tail[0])}, {to_decimal(tail[1])}] strictly inside the branching "
            f"region and strictly separated from {to_decimal(e1)} and {to_decimal(e3)}")


# ---------------------------------------------------------------------------
# two-expansion families


_FAMILY_SHAPES = {
    # name: (k_min, the block repeated j >= 1 times after the zeros, or ()
    # for a family without j, branch value: 0 for EPS1, 1 for EPS3); the
    # fixture words are read when a word is built, not at import
    "e1": (1, (), 0),
    "e3": (2, (), 1),
    "e1-alt": (1, (0, 1), 0),
    "e3-alt": (2, (1, 0), 1),
}

# parameters at which a deep member's prefix oracle still runs
_DEEP_SAMPLES = frozenset({9, 16, 25, 50})


def family_word(name: str, k: int, j: int = 0) -> PeriodicWord:
    """The word of a two-expansion family member: zeros, an optional
    alternating block, then the family's branch-value word.  Raises
    ValueError outside the family's parameter range."""
    return _branch_member(name, k, j, _branch_words())


def _branch_member(name: str, k: int, j: int, branches: tuple) -> PeriodicWord:
    """``family_word`` over the given ``_branch_words()``."""
    if name not in _FAMILY_SHAPES:
        raise ValueError(f"unknown family {name!r}")
    k_min, block, branch = _FAMILY_SHAPES[name]
    if k < k_min:
        raise ValueError(f"family {name!r} requires k >= {k_min}")
    if block and j < 1:
        raise ValueError(f"family {name!r} requires j >= 1")
    if not block and j:
        raise ValueError(f"family {name!r} takes no j parameter")
    return branches[branch].with_prefix((0,) * k + block * j)


@_check("branch-families", params=("k_max", "j_max"))
def check_branch_families(k_max: int, j_max: int) -> str:
    """Every member of the four families has exactly two expansions and a
    branch graph whose single node is the family's branch value."""
    if k_max < 2 or j_max < 1:
        raise ValueError("k_max must be >= 2 and j_max >= 1")
    q2 = q2_field()
    specials = _specials(q2)
    checked = 0
    branches = _branch_words()  # once per run, when the check runs
    for name, (k_min, block, branch) in _FAMILY_SHAPES.items():
        for k in range(k_min, k_max + 1):
            for j in (range(1, j_max + 1) if block else (0,)):
                member = f"{name} k={k} j={j}"
                word = _branch_member(name, k, j, branches)
                x = eval_word(word, q2)
                graph = build_branch_graph(x)
                if graph.truncated:
                    raise _Failure(f"{member}: graph truncated")
                if len(graph.nodes) != 1:
                    raise _Failure(f"{member}: {len(graph.nodes)} branch nodes, expected 1")
                node = next(iter(graph.nodes.values()))
                if node != specials[branch]:
                    raise _Failure(f"{member}: branch node {to_decimal(node)} is not the "
                                   f"family branch value")
                if (graph.root_segment != word.digits(len(graph.root_segment))
                        or len(graph.root_segment) != k + 2 * j):
                    raise _Failure(f"{member}: forced prefix differs from the word")
                c = classify(graph)
                if c != c.finite(2):
                    raise _Failure(f"{member}: classified {c}")
                depth = k + 2 * j + 16
                if depth <= 40 or k in _DEEP_SAMPLES or j in _DEEP_SAMPLES:
                    depth = max(depth, 40)
                    got = viable_prefix_counts(x, depth)[-1]
                    if got != 2:
                        raise _Failure(f"{member}: prefix oracle at depth {depth} gives {got}")
                checked += 1

    return (f"{checked} members across four families: Finite(2) with the "
            f"stated branch node; forced prefixes match the words")


# ---------------------------------------------------------------------------
# orbit identities


@_check("orbit-identities", params=("j_max",))
def check_orbit_identities(j_max: int) -> str:
    """Four exact orbit identities collapsing the alternating families to two
    target values, the closed form behind them, and the symbolic cancellation
    certified by the factor q^4 - 2q^2 - q - 1."""
    if j_max < 3:
        raise ValueError("j_max must be >= 3")
    q2 = q2_field()
    q = q2.q
    specials = _specials(q2)
    target_a, target_b = _targets(q)

    for t, label, cell in ((target_a, "A", fixtures.TARGET_A_5),
                           (target_b, "B", fixtures.TARGET_B_5)):
        if region(t) is not Region.SWITCH:
            raise _Failure(f"target {label} {to_decimal(t)} not in the branching region")
        if t in specials:
            raise _Failure(f"target {label} equals a double-expansion branch value")
        if not _within(t, cell, _PROSE_TOL):
            raise _Failure(f"target {label} prints {to_decimal(t, 5)}, expected {cell}")

    identities = (
        ("first", 3, lambda j: "0" + "01" * j + fixtures.EPS1,
         lambda j: (1, 1, 1, 1) + (0, 1) * (j - 2), target_a),
        ("second", 1, lambda j: "000" + "01" * j + fixtures.EPS1,
         lambda j: (1, 1) + (0, 1) * j, target_a),
        ("third", 2, lambda j: "00" + "10" * j + fixtures.EPS3,
         lambda j: (1, 1, 1) + (1, 0) * (j - 1), target_b),
        ("fourth", 1, lambda j: "0000" + "10" * j + fixtures.EPS3,
         lambda j: (1,) + (1, 0) * (j + 1), target_b),
    )
    applied = 0
    for label, j_min, mk_word, mk_digits, target in identities:
        for j in range(j_min, j_max + 1):
            got = apply_digits(_value(mk_word(j), q2, 1), mk_digits(j))
            if got != target:
                raise _Failure(f"{label} identity fails at j={j}: {to_decimal(got, 9)} != "
                               f"{to_decimal(target, 9)}")
            applied += 1

    # closed form of the first family's starting values
    for j in range(1, j_max + 1):
        lhs = _value("0" + "01" * j + fixtures.EPS1, q2, 1)
        rhs = (q**(2 * j + 2) + q - 1) / (q**(2 * j + 3) * (q**2 - 1)) + 1
        if lhs != rhs:
            raise _Failure(f"closed form fails at j={j}")

    # the final cancellation, per j and symbolically
    for j in range(1, j_max + 1):
        expr = (q**(2 * j + 2) / (q**3 * (q**2 - 1)) + q**(2 * j)
                - q**(2 * j - 1) - q**(2 * j - 2) - q**(2 * j - 3)
                - q**(2 * j - 4) - q**(2 * j - 4) / (q**2 - 1))
        if not expr.is_zero():
            raise _Failure(f"cancellation expression nonzero at j={j}")

    # in Z[x]: x^3 - 1 + (x^4-x^3-x^2-x-1)(x^2-1) = x(x-1)(x^4-2x^2-x-1),
    # so the expression vanishes exactly because q^4-2q^2-q-1 = 0; both
    # sides have degree 6, so agreeing at x = 0..6 proves the identity
    def lhs(x):
        return x**3 - 1 + (x**4 - x**3 - x**2 - x - 1) * (x**2 - 1)

    def rhs(x):
        return x * (x - 1) * (x**4 - 2 * x**2 - x - 1)

    _require(all(lhs(n) == rhs(n) for n in range(7)),
             "polynomial factorization witness fails")
    _require(lhs(q).is_zero(), "factored expression nonzero in the field")

    return (f"{applied} identity instances exact; targets {to_decimal(target_a, 5)} "
            f"and {to_decimal(target_b, 5)}; cancellation certified by the factor "
            f"q^4-2q^2-q-1 of x^3-1+(x^4-x^3-x^2-x-1)(x^2-1)")


# ---------------------------------------------------------------------------
# tail bounds for the deep members of the two-expansion families


@_check("tail-bounds")
def check_tail_bounds() -> str:
    """For each family, beyond the tabulated rows the first branching-region
    iterate lies in (q-1, T1(U)] which excludes both double-expansion values
    -- verified as exact endpoint comparisons with monotonicity witnesses."""
    q2 = q2_field()
    specials = _specials(q2)
    eps1, eps3 = fixtures.EPS1, fixtures.EPS3

    # (family label, boundary word, next word in k, beyond-table sample,
    # extra j-certificate: the first word's value is below the second's)
    cases = (
        ("zeros+e1, k>=7", "000000" + eps1, "0000000" + eps1, "0" * 9 + eps1, None),
        ("zeros+e3, k>=8", "0000000" + eps3, "00000000" + eps3, "0" * 10 + eps3, None),
        ("zeros+(01)^j+e1, k>=7", "000000" + "01" + eps1, "0000000" + "01" + eps1,
         "0" * 9 + "01" + eps1, ("01" + eps1, eps1)),
        ("zeros+(10)^j+e3, k>=8", "0000000(10)*", "00000000(10)*",
         "0" * 10 + "10" * 2 + eps3, (eps3, "(10)*")),
    )
    intervals = []
    for label, boundary, deeper, sample, j_cert in cases:
        bm1, t1u = _tail_interval(q2, specials, label, boundary, deeper)
        if j_cert is not None:
            smaller, larger = j_cert
            _require(_value(smaller, q2) < _value(larger, q2),
                     f"{label}: j-direction certificate fails")
        # the sample's first branching iterate obeys the bound
        _branch_end(_orbit(sample, q2), specials, sample, (bm1, t1u))
        intervals.append(f"{label}: ({to_decimal(bm1)}, {to_decimal(t1u, 7)}]")
    return "; ".join(intervals)


# ---------------------------------------------------------------------------
# the three parameter pairs outside the identities


@_check("exceptional-rows")
def check_exceptional_rows() -> str:
    """The three starting values not covered by the orbit identities still
    reach the branching region away from both double-expansion values; two
    of them land exactly on the identity targets."""
    q2 = q2_field()
    specials = _specials(q2)
    target_a, target_b = _targets(q2.q)

    finals = [_branch_end(_orbit(text, q2), specials, text)
              for text in ("00101(10)*", "0010101(10)*", "00100111(10)*")]

    # exact landings: the second and third rows end on the identity targets;
    # the first ends on the same value as the k=2 alternating row
    for row, final, target in (("second", finals[1], target_a), ("third", finals[2], target_b)):
        if final != target:
            raise _Failure(f"{row} row final {to_decimal(final, 7)} != "
                           f"target {to_decimal(target, 7)}")
    alt_k2 = apply_digits(_value("00(01)*", q2, 1), (1, 1))
    _require(finals[0] == alt_k2,
             "first row final differs from the k=2 alternating row final")

    return (f"finals {', '.join(to_decimal(v) for v in finals)}; "
            f"all in the branching region, none a branch value; "
            f"two land exactly on the identity targets")


CHECK_IDS = tuple(_PLAN)


# ---------------------------------------------------------------------------
# runner


def run_all(profile: str = "quick", check_ids=None) -> list[CheckResult]:
    """Run the selected checks (all by default) with profile bounds, each
    once however often it is named, and return the results sorted by check
    id."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    check_ids = CHECK_IDS if check_ids is None else tuple(dict.fromkeys(check_ids))
    unknown = [c for c in check_ids if c not in _PLAN]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    k_max, j_max = PROFILES[profile]
    results = []
    for check_id in check_ids:
        name, params = _PLAN[check_id]
        args = {"k_max": k_max, "j_max": j_max, "check_id": check_id}
        results.append(globals()[name](*(args[p] for p in params)))
    return sorted(results, key=lambda r: r.check_id)


def _tally(results) -> tuple[int, int, int]:
    """Passed, failed, and skipped: results that did neither."""
    n_pass = sum(r.status == PASS for r in results)
    n_fail = sum(r.status == FAIL for r in results)
    return n_pass, n_fail, len(results) - n_pass - n_fail


def render_text(results) -> str:
    lines = [f"{r.status.upper():<5} {r.check_id:<17} "
             f"{r.elapsed * 1000.0:9.1f} ms  {r.witness}" for r in results]
    lines.append("{} passed, {} failed, {} skipped".format(*_tally(results)))
    return "\n".join(lines)


def render_records(results, profile: str) -> dict:
    n_pass, n_fail, n_skip = _tally(results)
    return {"results": [r.record() for r in results],
            "passed": n_pass, "failed": n_fail, "skipped": n_skip, "profile": profile}
