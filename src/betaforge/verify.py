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
SKIPPED = "skipped"

CHECK_IDS = (
    "constants",
    "two-point",
    "counts-family",
    "T1",
    "T2",
    "T3",
    "T4",
    "no-triple",
    "branch-families",
    "orbit-identities",
    "tail-bounds",
    "exceptional-rows",
)

PROFILES = {"quick": (8, 8), "full": (50, 50)}

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


def _checked(check_id: str, body) -> CheckResult:
    start = time.perf_counter()
    try:
        witness = body()
        status = PASS
    except _Failure as exc:
        witness = exc.witness
        status = FAIL
    elapsed = time.perf_counter() - start
    return CheckResult(check_id, status, witness, elapsed)


def _require(cond: bool, witness: str) -> None:
    """Fail with a constant witness.  A witness that formats a value is
    raised by the check itself, behind its condition, so a passing check
    never formats it."""
    if not cond:
        raise _Failure(witness)


def _dec(x: AlgebraicReal, digits: int = 6) -> str:
    return to_decimal(x, digits)


def _within(x: AlgebraicReal, cell: str, tol: Fraction = _CELL_TOL) -> bool:
    """Exact test |x - cell| <= tol in the ambient field."""
    diff = x - x.field.from_rational(Fraction(cell))
    lo = diff + x.field.from_rational(tol)
    hi = diff - x.field.from_rational(tol)
    return lo.sign() >= 0 and hi.sign() <= 0


def _specials(field):
    """The two double-expansion branch values."""
    return (eval_word(parse_word(fixtures.EPS1), field),
            eval_word(parse_word(fixtures.EPS3), field))


def _targets(q: AlgebraicReal) -> tuple[AlgebraicReal, AlgebraicReal]:
    """The two values the orbit identities collapse the families to."""
    target_a = (q - 1) / (q**3 * (q**2 - 1)) + 1 / (q**2 - 1)
    target_b = q / (q**2 - 1) + (1 - q) / (q**3 * (q**2 - 1))
    return target_a, target_b


# ---------------------------------------------------------------------------
# constants


def check_constants() -> CheckResult:
    """Base constants: decimal prints, defining relations, and the sign of
    q^6 - q^5 - 2q^4 + q^2 + q + 1 in the quartic base."""
    return _checked("constants", _constants_body)


def _constants_body() -> str:
    q2, qf, gold = q2_field(), qf_field(), golden_field()

    got15 = to_decimal(q2.q, 15)
    if got15 != fixtures.Q2_DECIMALS_15:
        raise _Failure(f"quartic base prints {got15}, expected {fixtures.Q2_DECIMALS_15}")
    got5 = to_decimal(qf.q, 5)
    if got5 != fixtures.QF_DECIMALS_5:
        raise _Failure(f"companion base prints {got5}, expected {fixtures.QF_DECIMALS_5}")

    q = q2.q
    _require((q**4 - (2 * q**2 + q + 1)).is_zero(),
             "quartic base fails x^4 = 2x^2 + x + 1")
    f = qf.q
    _require((f**4 - (f**3 + f**2 + 1)).is_zero(),
             "companion base fails x^4 = x^3 + x^2 + 1")
    _require((f**3 - (2 * f**2 - f + 1)).is_zero(),
             "companion base fails x^3 = 2x^2 - x + 1")
    g = gold.q
    _require((g**2 - (g + 1)).is_zero(), "golden base fails x^2 = x + 1")

    s = (q**6 - q**5 - 2 * q**4 + q**2 + q + 1).sign()
    if s != -1:
        raise _Failure(f"sign(q^6-q^5-2q^4+q^2+q+1) = {s} in the quartic base, expected -1")

    lo, hi, _ = domain_bounds(q2)
    if not _within(lo, fixtures.SWITCH_LO_6):
        raise _Failure(f"branching region lower end {_dec(lo)} != {fixtures.SWITCH_LO_6}")
    if not _within(hi, fixtures.SWITCH_HI_6):
        raise _Failure(f"branching region upper end {_dec(hi)} != {fixtures.SWITCH_HI_6}")

    return (f"quartic base {got15}; companion base {got5}; "
            f"defining relations exact; sign witness -1; "
            f"branching region [{_dec(lo)}, {_dec(hi)}]")


# ---------------------------------------------------------------------------
# the two double-expansion branch values


def check_two_point() -> CheckResult:
    """The only two branching-region values with exactly two expansions,
    their word pairs, and the reflection pairing between them."""
    return _checked("two-point", _two_point_body)


def _two_point_body() -> str:
    q2 = q2_field()
    w1, w2 = parse_word(fixtures.EPS1), parse_word(fixtures.EPS2)
    w3, w4 = parse_word(fixtures.EPS3), parse_word(fixtures.EPS4)
    a = eval_word(w1, q2)
    b = eval_word(w3, q2)

    a2 = eval_word(w2, q2)
    if a != a2:
        raise _Failure(f"{fixtures.EPS1} and {fixtures.EPS2} differ: "
                       f"{_dec(a, 9)} vs {_dec(a2, 9)}")
    if b != eval_word(w4, q2):
        raise _Failure(f"{fixtures.EPS3} and {fixtures.EPS4} differ")

    if region(a) is not Region.SWITCH:
        raise _Failure(f"{_dec(a)} not in the branching region")
    if region(b) is not Region.SWITCH:
        raise _Failure(f"{_dec(b)} not in the branching region")
    if not _within(a, fixtures.EPS1_VALUE_6):
        raise _Failure(f"first value prints {_dec(a)}, expected {fixtures.EPS1_VALUE_6}")
    if not _within(b, fixtures.EPS3_VALUE_6):
        raise _Failure(f"second value prints {_dec(b)}, expected {fixtures.EPS3_VALUE_6}")

    ca, cb = count_expansions(a), count_expansions(b)
    if ca != ca.finite(2):
        raise _Failure(f"count at first value: {ca}, expected Finite(2)")
    if cb != cb.finite(2):
        raise _Failure(f"count at second value: {cb}, expected Finite(2)")
    _require(sorted(enumerate_expansions(a)) == sorted([w1, w2]),
             "enumerated expansions of the first value are not the stated pair")
    _require(sorted(enumerate_expansions(b)) == sorted([w3, w4]),
             "enumerated expansions of the second value are not the stated pair")

    _require(reflect_word(w1) == w4, "reflection does not pair the outer words")
    _require(reflect_word(w2) == w3, "reflection does not pair the inner words")
    _require(reflect_point(a) == b, "reflection does not exchange the two values")

    _require(viable_prefix_counts(a, 40)[-1] == 2,
             "prefix oracle at depth 40 != 2 (first value)")
    _require(viable_prefix_counts(b, 40)[-1] == 2,
             "prefix oracle at depth 40 != 2 (second value)")

    # the unique-neighbour identities behind the two-point claim: each pair
    # (y, y + 1) consists of points with a single expansion
    _require(eval_word(parse_word("0000(10)*"), q2) + 1 == eval_word(parse_word("1(10)*"), q2),
             "(0000(10)*) + 1 != (1(10)*)")
    _require(eval_word(parse_word("00(10)*"), q2) + 1 == eval_word(parse_word("111(10)*"), q2),
             "(00(10)*) + 1 != (111(10)*)")
    for text in ("0000(10)*", "1(10)*", "00(10)*", "111(10)*"):
        c = count_expansions(eval_word(parse_word(text), q2))
        if c != c.finite(1):
            raise _Failure(f"{text} is not uniquely expandable: {c}")

    return (f"values {_dec(a)} and {_dec(b)}, both Finite(2); "
            f"reflection pairing and unique-neighbour identities exact")


# ---------------------------------------------------------------------------
# counting family in the companion base


def _family_member(k: int) -> PeriodicWord:
    """The word 1 (0000)^(k-1) 0 (10)* whose value has exactly k expansions
    in the companion base."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return PeriodicWord((1,) + (0, 0, 0, 0) * (k - 1) + (0,), (1, 0))


def check_counts_family(k_max: int = 8) -> CheckResult:
    """Exact expansion counts k = 1..k_max in the companion base, plus the
    countably infinite point 1/q and its first six expansions."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _checked("counts-family", lambda: _counts_family_body(k_max))


def _counts_family_body(k_max: int) -> str:
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
        if k >= 2 and (x - lo).sign() <= 0:
            raise _Failure(f"k={k}: member value {_dec(x)} not above 1/q, "
                           "the first digit is not forced")

    words1 = [str(w) for w in enumerate_expansions(eval_word(_family_member(1), qf))]
    if words1 != ["(10)*"]:
        raise _Failure(f"k=1 expansion list {words1}, expected ['(10)*']")
    words3 = [str(w) for w in enumerate_expansions(eval_word(_family_member(3), qf))]
    if tuple(words3) != fixtures.X3_EXPANSIONS:
        raise _Failure(f"k=3 expansion list {words3}")

    # exact identity forcing the digit split: 1/q = 1/q^2 + 1/(q^3(q-1))
    _require((1 / q) == (1 / q**2 + 1 / (q**3 * (q - 1))),
             "identity 1/q = 1/q^2 + 1/(q^3(q-1)) fails in the companion base")
    s = (q**6 - q**5 - 2 * q**4 + q**2 + q + 1).sign()
    if s != -1:
        raise _Failure(f"sign(q^6-q^5-2q^4+q^2+q+1) = {s} in the companion base")

    xa = eval_word(parse_word(fixtures.ALEPH0_WORD), qf)
    _require(xa == lo, "the countably infinite point is not 1/q")
    ca = count_expansions(xa)
    if str(ca) != "CountablyInfinite":
        raise _Failure(f"{fixtures.ALEPH0_WORD} classified {ca}, expected CountablyInfinite")
    six, _complete = bfs_expansions(xa, max_count=6)
    got_six = tuple(str(w) for w in six)
    if got_six != fixtures.ALEPH0_FIRST_SIX:
        raise _Failure(f"first six expansions {got_six}")

    # the same word read in the quartic base, reported but never asserted
    info = count_expansions(eval_word(parse_word(fixtures.ALEPH0_WORD), q2_field()), **_INFO_CAPS)

    return (f"Finite(k) for k=1..{k_max} with matching prefix oracle; "
            f"1/q is CountablyInfinite with the six stated expansions; "
            f"quartic-base reading (informational): {info}")


# ---------------------------------------------------------------------------
# iterate tables


def check_table(table_id: str) -> CheckResult:
    """Reproduce one iterate table row by row at +/-1e-6."""
    if table_id not in fixtures.TABLES:
        raise ValueError(f"unknown table {table_id!r}")
    return _checked(table_id, lambda: _table_body(table_id))


def _table_body(table_id: str) -> str:
    q2 = q2_field()
    e1, e3 = _specials(q2)
    table = getattr(fixtures, fixtures.TABLES[table_id])
    n_cells = 0
    for word_text, cells in table:
        x = eval_word(parse_word(word_text), q2) + 1
        out = deterministic_run(x, max_steps=500)
        if cells == fixtures.UNIQUE:
            if not isinstance(out.end, UniqueTail):
                raise _Failure(f"{table_id} row {word_text}: expected a unique tail, "
                               f"got {type(out.end).__name__}")
            if viable_prefix_counts(x, 40)[-1] != 1:
                raise _Failure(f"{table_id} row {word_text}: prefix oracle at depth 40 != 1")
            continue
        values = out.orbit
        if not isinstance(out.end, SwitchHit):
            raise _Failure(f"{table_id} row {word_text}: orbit did not reach the "
                           f"branching region ({type(out.end).__name__})")
        if len(values) != len(cells):
            raise _Failure(f"{table_id} row {word_text}: {len(values)} iterates, "
                           f"table lists {len(cells)}")
        for col, (v, cell) in enumerate(zip(values, cells)):
            if not _within(v, cell):
                raise _Failure(f"{table_id} row {word_text} column {col}: "
                               f"computed {_dec(v, 7)}, table says {cell}")
        final = values[-1]
        if region(final) is not Region.SWITCH:
            raise _Failure(f"{table_id} row {word_text}: final value not in the branching region")
        if final == e1 or final == e3:
            raise _Failure(f"{table_id} row {word_text}: final value equals a "
                           f"double-expansion branch value")
        n_cells += len(cells)
    return f"{len(table)} rows, {n_cells} iterates matched at +/-1e-6"


# ---------------------------------------------------------------------------
# no third expansion: the alternating family


def check_no_triple() -> CheckResult:
    """Rows k = 1..6 of the alternating family miss both double-expansion
    values, and the k >= 7 tail maps into an interval that excludes them --
    all as exact comparisons."""
    return _checked("no-triple", _no_triple_body)


def _no_triple_body() -> str:
    q2 = q2_field()
    q = q2.q
    e1, e3 = _specials(q2)
    lo, hi, _ = domain_bounds(q2)
    bm1 = q - 1

    for k in range(1, 7):
        x = eval_word(parse_word("0" * k + "(01)*"), q2) + 1
        out = deterministic_run(x, max_steps=500)
        if isinstance(out.end, UniqueTail):
            continue
        if not isinstance(out.end, SwitchHit):
            raise _Failure(f"k={k}: orbit ended with {type(out.end).__name__}")
        v = out.end.value
        if v == e1 or v == e3:
            raise _Failure(f"k={k}: orbit lands on a double-expansion value {_dec(v)}")

    # tail interval: for k >= 7 the final iterate lies in (q-1, T1(U)],
    # U = (0^6(01)*) + 1; every endpoint comparison is exact
    U = eval_word(parse_word("000000(01)*"), q2) + 1
    t1u = t1(U)
    _require((bm1 - lo).sign() > 0, "q-1 not strictly above the region floor")
    _require((bm1 - hi).sign() < 0, "q-1 not strictly below the region ceiling")
    _require((t1u - hi).sign() < 0, "T1(U) not strictly below the region ceiling")
    _require((t1u - bm1).sign() > 0, "tail interval is empty")
    _require((e1 - bm1).sign() < 0, "first double-expansion value not below q-1")
    _require((t1u - e3).sign() < 0, "T1(U) not below the second double-expansion value")
    _require((eval_word(parse_word("0000000(01)*"), q2)
              - eval_word(parse_word("000000(01)*"), q2)).sign() < 0,
             "family values do not decrease in k")

    for k in (7, 8, 9):
        x = eval_word(parse_word("0" * k + "(01)*"), q2) + 1
        out = deterministic_run(x, max_steps=500)
        if not isinstance(out.end, SwitchHit):
            raise _Failure(f"k={k}: no branching value reached")
        v = out.end.value
        if (v - bm1).sign() <= 0 or (v - t1u).sign() > 0:
            raise _Failure(f"k={k}: final value {_dec(v)} outside (q-1, T1(U)]")
        if v == e1 or v == e3:
            raise _Failure(f"k={k}: final value is a branch value")

    return (f"rows k=1..6 miss both branch values; tail interval "
            f"({_dec(bm1)}, {_dec(t1u)}] strictly inside the branching region "
            f"and strictly separated from {_dec(e1)} and {_dec(e3)}")


# ---------------------------------------------------------------------------
# two-expansion families


_FAMILY_SHAPES = {
    # name: (k_min, uses_j, prefix builder, branch value: 0 for EPS1, 1 for
    # EPS3); the fixture words are read when a word is built, not at import
    "e1": (1, False, lambda k, j: "0" * k, 0),
    "e3": (2, False, lambda k, j: "0" * k, 1),
    "e1-alt": (1, True, lambda k, j: "0" * k + "01" * j, 0),
    "e3-alt": (2, True, lambda k, j: "0" * k + "10" * j, 1),
}


def family_word(name: str, k: int, j: int = 0) -> PeriodicWord:
    """The word of a two-expansion family member: zeros, an optional
    alternating block, then the family's branch-value word.  Raises
    ValueError outside the family's parameter range."""
    if name not in _FAMILY_SHAPES:
        raise ValueError(f"unknown family {name!r}")
    k_min, uses_j, prefix, branch = _FAMILY_SHAPES[name]
    if k < k_min:
        raise ValueError(f"family {name!r} requires k >= {k_min}")
    if uses_j and j < 1:
        raise ValueError(f"family {name!r} requires j >= 1")
    if not uses_j and j:
        raise ValueError(f"family {name!r} takes no j parameter")
    return parse_word(prefix(k, j) + (fixtures.EPS1, fixtures.EPS3)[branch])


def check_branch_families(k_max: int = 8, j_max: int = 8) -> CheckResult:
    """Every member of the four families has exactly two expansions and a
    branch graph whose single node is the family's branch value."""
    if k_max < 2 or j_max < 1:
        raise ValueError("k_max must be >= 2 and j_max >= 1")
    return _checked("branch-families", lambda: _branch_families_body(k_max, j_max))


def _branch_families_body(k_max: int, j_max: int) -> str:
    q2 = q2_field()
    branch_values = _specials(q2)
    checked = 0

    def verify_member(name: str, k: int, j: int) -> None:
        nonlocal checked
        word = family_word(name, k, j)
        x = eval_word(word, q2)
        graph = build_branch_graph(x)
        expect = branch_values[_FAMILY_SHAPES[name][3]]
        if graph.truncated:
            raise _Failure(f"{name} k={k} j={j}: graph truncated")
        if len(graph.nodes) != 1:
            raise _Failure(f"{name} k={k} j={j}: {len(graph.nodes)} branch nodes, expected 1")
        node = next(iter(graph.nodes.values()))
        if node != expect:
            raise _Failure(f"{name} k={k} j={j}: branch node {_dec(node)} is not the "
                           f"family branch value")
        if (graph.root_segment != word.digits(len(graph.root_segment))
                or len(graph.root_segment) != k + 2 * j):
            raise _Failure(f"{name} k={k} j={j}: forced prefix differs from the word")
        c = classify(graph)
        if c != c.finite(2):
            raise _Failure(f"{name} k={k} j={j}: classified {c}")
        depth = k + 2 * j + 16
        if depth <= 40 or k in _DEEP_SAMPLES or j in _DEEP_SAMPLES:
            depth = max(depth, 40)
            got = viable_prefix_counts(x, depth)[-1]
            if got != 2:
                raise _Failure(f"{name} k={k} j={j}: prefix oracle at depth {depth} gives {got}")
        checked += 1

    for k in range(1, k_max + 1):
        verify_member("e1", k, 0)
    for k in range(2, k_max + 1):
        verify_member("e3", k, 0)
    for k in range(1, k_max + 1):
        for j in range(1, j_max + 1):
            verify_member("e1-alt", k, j)
    for k in range(2, k_max + 1):
        for j in range(1, j_max + 1):
            verify_member("e3-alt", k, j)

    # parameter validation: the zero-block family over the second branch
    # value starts at k = 2
    try:
        family_word("e3-alt", 1, 1)
    except ValueError:
        pass
    else:
        raise _Failure("family 'e3-alt' accepted k = 1")

    return (f"{checked} members across four families: Finite(2) with the "
            f"stated branch node; forced prefixes match the words")


_DEEP_SAMPLES = frozenset({9, 16, 25, 50})


# ---------------------------------------------------------------------------
# orbit identities


def check_orbit_identities(j_max: int = 8) -> CheckResult:
    """Four exact orbit identities collapsing the alternating families to two
    target values, the closed form behind them, and the symbolic cancellation
    certified by the factor q^4 - 2q^2 - q - 1."""
    if j_max < 3:
        raise ValueError("j_max must be >= 3")
    return _checked("orbit-identities", lambda: _orbit_identities_body(j_max))


def _orbit_identities_body(j_max: int) -> str:
    q2 = q2_field()
    q = q2.q
    e1, e3 = _specials(q2)
    target_a, target_b = _targets(q)

    for t, label, cell in ((target_a, "A", fixtures.TARGET_A_5),
                           (target_b, "B", fixtures.TARGET_B_5)):
        if region(t) is not Region.SWITCH:
            raise _Failure(f"target {label} {_dec(t)} not in the branching region")
        if t == e1 or t == e3:
            raise _Failure(f"target {label} equals a double-expansion branch value")
        if not _within(t, cell, _PROSE_TOL):
            raise _Failure(f"target {label} prints {_dec(t, 5)}, expected {cell}")

    def start(text: str) -> AlgebraicReal:
        return eval_word(parse_word(text), q2) + 1

    identities = (
        ("first", 3, lambda j: start("0" + "01" * j + fixtures.EPS1),
         lambda j: (1, 1, 1, 1) + (0, 1) * (j - 2), target_a),
        ("second", 1, lambda j: start("000" + "01" * j + fixtures.EPS1),
         lambda j: (1, 1) + (0, 1) * j, target_a),
        ("third", 2, lambda j: start("00" + "10" * j + fixtures.EPS3),
         lambda j: (1, 1, 1) + (1, 0) * (j - 1), target_b),
        ("fourth", 1, lambda j: start("0000" + "10" * j + fixtures.EPS3),
         lambda j: (1,) + (1, 0) * (j + 1), target_b),
    )
    applied = 0
    for label, j_min, mk_start, mk_digits, target in identities:
        for j in range(j_min, j_max + 1):
            got = apply_digits(mk_start(j), mk_digits(j))
            if got != target:
                raise _Failure(f"{label} identity fails at j={j}: {_dec(got, 9)} != "
                               f"{_dec(target, 9)}")
            applied += 1

    # closed form of the first family's starting values
    for j in range(1, j_max + 1):
        lhs = start("0" + "01" * j + fixtures.EPS1)
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

    return (f"{applied} identity instances exact; targets {_dec(target_a, 5)} "
            f"and {_dec(target_b, 5)}; cancellation certified by the factor "
            f"q^4-2q^2-q-1 of x^3-1+(x^4-x^3-x^2-x-1)(x^2-1)")


# ---------------------------------------------------------------------------
# tail bounds for the deep members of the two-expansion families


def check_tail_bounds() -> CheckResult:
    """For each family, beyond the tabulated rows the first branching-region
    iterate lies in (q-1, T1(U)] which excludes both double-expansion values
    -- verified as exact endpoint comparisons with monotonicity witnesses."""
    return _checked("tail-bounds", _tail_bounds_body)


def _tail_bounds_body() -> str:
    q2 = q2_field()
    q = q2.q
    e1, e3 = _specials(q2)
    lo, hi, _ = domain_bounds(q2)
    bm1 = q - 1

    _require((bm1 - lo).sign() > 0 and (bm1 - hi).sign() < 0,
             "q-1 not strictly inside the branching region")
    _require((e1 - bm1).sign() < 0,
             "first branch value not strictly below q-1")

    # (family label, boundary word, next word in k, extra j-certificate)
    cases = (
        ("zeros+e1, k>=7", "000000" + fixtures.EPS1,
         "0000000" + fixtures.EPS1, None),
        ("zeros+e3, k>=8", "0000000" + fixtures.EPS3,
         "00000000" + fixtures.EPS3, None),
        ("zeros+(01)^j+e1, k>=7", "000000" + "01" + fixtures.EPS1,
         "0000000" + "01" + fixtures.EPS1,
         ("01" + fixtures.EPS1, fixtures.EPS1)),
        ("zeros+(10)^j+e3, k>=8", "0000000(10)*",
         "00000000(10)*", (fixtures.EPS3, "(10)*")),
    )
    intervals = []
    for label, boundary, deeper, j_cert in cases:
        u = eval_word(parse_word(boundary), q2) + 1
        t1u = t1(u)
        if (t1u - bm1).sign() <= 0:
            raise _Failure(f"{label}: tail interval empty")
        if (t1u - hi).sign() >= 0:
            raise _Failure(f"{label}: T1(U) not strictly below the region ceiling")
        if (t1u - e3).sign() >= 0:
            raise _Failure(f"{label}: T1(U) {_dec(t1u, 7)} not below the second branch value")
        if (eval_word(parse_word(deeper), q2) - eval_word(parse_word(boundary), q2)).sign() >= 0:
            raise _Failure(f"{label}: values do not decrease in k")
        if j_cert is not None:
            smaller, larger = (eval_word(parse_word(text), q2) for text in j_cert)
            if (smaller - larger).sign() >= 0:
                raise _Failure(f"{label}: j-direction certificate fails")
        intervals.append(f"{label}: ({_dec(bm1)}, {_dec(t1u, 7)}]")

    # beyond-table sample per family: the first branching iterate obeys
    # the bound
    samples = (
        ("0" * 9 + fixtures.EPS1, "000000" + fixtures.EPS1),
        ("0" * 10 + fixtures.EPS3, "0000000" + fixtures.EPS3),
        ("0" * 9 + "01" + fixtures.EPS1, "000000" + "01" + fixtures.EPS1),
        ("0" * 10 + "10" * 2 + fixtures.EPS3, "0000000(10)*"),
    )
    for deep_text, boundary in samples:
        x = eval_word(parse_word(deep_text), q2) + 1
        out = deterministic_run(x, max_steps=500)
        if not isinstance(out.end, SwitchHit):
            raise _Failure(f"{deep_text}: no branching value")
        v = out.end.value
        t1u = t1(eval_word(parse_word(boundary), q2) + 1)
        if (v - bm1).sign() <= 0 or (v - t1u).sign() > 0:
            raise _Failure(f"{deep_text}: final value {_dec(v, 7)} outside the tail interval")
        if v == e1 or v == e3:
            raise _Failure(f"{deep_text}: final value is a branch value")

    return "; ".join(intervals)


# ---------------------------------------------------------------------------
# the three parameter pairs outside the identities


def check_exceptional_rows() -> CheckResult:
    """The three starting values not covered by the orbit identities still
    reach the branching region away from both double-expansion values; two
    of them land exactly on the identity targets."""
    return _checked("exceptional-rows", _exceptional_rows_body)


def _exceptional_rows_body() -> str:
    q2 = q2_field()
    q = q2.q
    e1, e3 = _specials(q2)
    target_a, target_b = _targets(q)

    rows = ("00101(10)*", "0010101(10)*", "00100111(10)*")
    finals = []
    for text in rows:
        x = eval_word(parse_word(text), q2) + 1
        out = deterministic_run(x, max_steps=500)
        if not isinstance(out.end, SwitchHit):
            raise _Failure(f"{text}: orbit did not reach the branching region")
        v = out.end.value
        if region(v) is not Region.SWITCH:
            raise _Failure(f"{text}: final value left the region")
        if v == e1 or v == e3:
            raise _Failure(f"{text}: final value {_dec(v)} is a double-expansion value")
        finals.append(v)

    # exact landings: the second and third rows end on the identity targets;
    # the first ends on the same value as the k=2 alternating row
    if finals[1] != target_a:
        raise _Failure(f"second row final {_dec(finals[1], 7)} != target {_dec(target_a, 7)}")
    if finals[2] != target_b:
        raise _Failure(f"third row final {_dec(finals[2], 7)} != target {_dec(target_b, 7)}")
    alt_k2 = apply_digits(eval_word(parse_word("00(01)*"), q2) + 1, (1, 1))
    _require(finals[0] == alt_k2,
             "first row final differs from the k=2 alternating row final")

    return (f"finals {_dec(finals[0])}, {_dec(finals[1])}, {_dec(finals[2])}; "
            f"all in the branching region, none a branch value; "
            f"two land exactly on the identity targets")


# ---------------------------------------------------------------------------
# runner


def _build_plan(k_max: int, j_max: int) -> dict:
    return {
        "constants": check_constants,
        "two-point": check_two_point,
        "counts-family": lambda: check_counts_family(k_max),
        "T1": lambda: check_table("T1"),
        "T2": lambda: check_table("T2"),
        "T3": lambda: check_table("T3"),
        "T4": lambda: check_table("T4"),
        "no-triple": check_no_triple,
        "branch-families": lambda: check_branch_families(k_max, j_max),
        "orbit-identities": lambda: check_orbit_identities(j_max),
        "tail-bounds": check_tail_bounds,
        "exceptional-rows": check_exceptional_rows,
    }


def run_all(profile: str = "quick", check_ids=None) -> list[CheckResult]:
    """Run the selected checks (all by default) with profile bounds and
    return the results sorted by check id."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    k_max, j_max = PROFILES[profile]
    plan = _build_plan(k_max, j_max)
    if check_ids is None:
        selected = list(plan)
    else:
        unknown = [c for c in check_ids if c not in plan]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
        selected = list(check_ids)
    results = [plan[cid]() for cid in selected]
    return sorted(results, key=lambda r: r.check_id)


def render_text(results) -> str:
    lines = []
    for r in results:
        lines.append(f"{r.status.upper():<5} {r.check_id:<17} "
                     f"{r.elapsed * 1000.0:9.1f} ms  {r.witness}")
    n_pass = sum(r.status == PASS for r in results)
    n_fail = sum(r.status == FAIL for r in results)
    lines.append(f"{n_pass} passed, {n_fail} failed, "
                 f"{len(results) - n_pass - n_fail} skipped")
    return "\n".join(lines)


def render_records(results, profile: str | None = None) -> dict:
    out = {
        "results": [r.record() for r in results],
        "passed": sum(r.status == PASS for r in results),
        "failed": sum(r.status == FAIL for r in results),
        "skipped": sum(r.status == SKIPPED for r in results),
    }
    if profile is not None:
        out["profile"] = profile
    return out
