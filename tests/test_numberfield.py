"""Exact arithmetic in Q(q): field construction, operators, signs, decimals."""

import ast
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from betaforge.numberfield import (
    FILTER_BITS,
    AlgebraicReal,
    AmbiguousInterval,
    BaseField,
    MixedFields,
    NoRootInInterval,
    NotMonic,
    ReduciblePolynomial,
    compare,
    define_field,
    golden_field,
    q2_field,
    qf_field,
    _poly_over_interval,
    _sturm_chain,
    _sturm_count,
    sign,
    to_decimal,
)
from betaforge import numberfield
from betaforge.words import PeriodicWord, eval_word, parse_word
from conftest import _poly_over_interval as _fraction_enclosure, enclosure, grid_construction


def test_builtin_constants_print():
    assert to_decimal(q2_field().q, 15) == "1.710644095045033"
    assert to_decimal(qf_field().q, 5) == "1.75488"
    assert to_decimal(golden_field().q, 6) == "1.618034"


def test_defining_relations_exact():
    q = q2_field().q
    assert (q**4 - (2 * q**2 + q + 1)).is_zero()
    f = qf_field().q
    assert (f**4 - (f**3 + f**2 + 1)).is_zero()
    assert (f**3 - (2 * f**2 - f + 1)).is_zero()
    g = golden_field().q
    assert (g**2 - (g + 1)).is_zero()


def test_define_field_rejects_non_monic():
    with pytest.raises(NotMonic):
        define_field((-1, -1, 2), (Fraction(1), Fraction(2)))


@pytest.mark.parametrize("coeffs", [
    [-1, -1.9, 1], [-1, Fraction(-19, 10), 1], [-1.5, -1, 1], [-1, -1, "1"],
], ids=["float", "fraction", "constant", "text"])
def test_define_field_refuses_a_coefficient_that_is_not_an_integer(coeffs):
    # int() would truncate -1.9 to -1 and build the golden ratio's field
    with pytest.raises(ValueError, match="coefficients must be integers"):
        define_field(coeffs, (Fraction(3, 2), Fraction(17, 10)))


def test_define_field_takes_integral_coefficients_of_any_numeric_type():
    F = define_field([-1.0, Fraction(-1), True], (Fraction(3, 2), Fraction(17, 10)))
    assert F.min_poly == (-1, -1, 1)
    assert {type(c) for c in F.min_poly} == {int}
    assert F.q * F.q == F.q + 1


def test_define_field_rejects_low_degree():
    with pytest.raises(ValueError):
        define_field((-1, 1), (Fraction(0), Fraction(2)))


def test_define_field_rejects_rootless_interval():
    with pytest.raises(NoRootInInterval):
        define_field((-1, -1, -2, 0, 1), (Fraction(18, 10), Fraction(19, 10)))


def test_define_field_rejects_two_roots():
    # x^2 - 3 has both roots inside (-2, 2)
    with pytest.raises(AmbiguousInterval):
        define_field((-3, 0, 1), (Fraction(-2), Fraction(2)))


def test_define_field_rejects_roots_sharing_a_grid_cell():
    # (x-100)^3 - 3(x-100) + 1 has roots near 98.12, 100.35 and 101.53, all in
    # one of 32 grid cells of [0, 1000]: a single sign change hides three roots
    with pytest.raises(AmbiguousInterval, match="3 real roots"):
        define_field((-999699, 29997, -300, 1), (0, 1000))
    # the first two alone share a cell of [0, 100.9] with no sign change
    with pytest.raises(AmbiguousInterval, match="2 real roots"):
        define_field((-999699, 29997, -300, 1), (0, Fraction(1009, 10)))
    # each root alone is accepted
    for lo, hi in ((98, 99), (100, Fraction(201, 2)), (101, 102)):
        assert define_field((-999699, 29997, -300, 1), (lo, hi)).interval()


@pytest.mark.parametrize("poly, iso, roots", [
    ((-3, 0, 1), (-2, 2), 2),
    ((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25)), 1),
    ((-1, -1, -2, 0, 1), (-10, 10), 2),  # q2's quartic: two real roots
    ((1, -3, 0, 1), (-3, 3), 3),  # x^3 - 3x + 1
    ((4, 0, -4, 0, 1), (0, 3), 1),  # (x^2 - 2)^2: distinct roots only
    ((-1, -1, 1), (2, 3), 0),
])
def test_sturm_count(poly, iso, roots):
    assert _sturm_count(_sturm_chain(poly), *_cell(*iso)) == roots


def _cell(lo, hi):
    """The integer cell (a, b, d), meaning [a/d, b/d], of [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


# the classical construction over Q, in Fractions: the reference for the
# field's integer kernel


def _value(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _sgn(r):
    return (r > 0) - (r < 0)


def _fraction_sturm_chain(coeffs):
    chain = [[Fraction(c) for c in coeffs]]
    chain.append([k * c for k, c in enumerate(chain[0])][1:])
    while True:
        a, b = list(chain[-2]), chain[-1]
        while len(a) >= len(b):  # a becomes the remainder of a by b
            f, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        if not a:
            return chain
        chain.append([-c for c in a])


def _fraction_sturm_count(chain, lo, hi):
    def variations(x):
        signs = [s for s in (_sgn(_value(p, x)) for p in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def _fraction_interval(coeffs, lo, hi):
    """The isolating interval that construction certifies, found in
    Fractions, or the exception class that construction raises."""
    height = 1 + max(map(abs, coeffs[:-1]))
    if not coeffs[0] or any(_value(coeffs, r) == 0 for r in range(-height, height + 1)):
        return ReduciblePolynomial
    roots = _fraction_sturm_count(_fraction_sturm_chain(coeffs), lo, hi)
    if roots != 1:
        return AmbiguousInterval if roots else NoRootInInterval
    pts = [lo + (hi - lo) * Fraction(i, 32) for i in range(33)]
    signs = [_sgn(_value(coeffs, x)) for x in pts]
    crossings = [i for i in range(32) if signs[i] * signs[i + 1] < 0]
    if not crossings:
        return NoRootInInterval
    i = crossings[0]
    lo, hi = pts[i], pts[i + 1]
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(256):
        dlo, dhi = _fraction_enclosure(deriv, lo, hi)
        if dlo > 0 or dhi < 0:
            return lo, hi
        mid = (lo + hi) / 2
        if _sgn(_value(coeffs, mid)) == signs[i]:
            lo = mid
        else:
            hi = mid
    return AmbiguousInterval


_POLYS = st.lists(st.integers(-20, 20), min_size=2, max_size=24)  # below the leading term
_ENDS = st.tuples(st.integers(-48, 48), st.integers(1, 64), st.sampled_from([1, 3, 16]))


def _ends(ends):
    """A rational interval [lo, hi] from integers (m, w, k): m/k, (m + w)/k."""
    m, w, k = ends
    return Fraction(m, k), Fraction(m + w, k)


@settings(max_examples=150, deadline=None)
@given(_POLYS, st.integers(-20, 20).filter(bool), _ENDS)
def test_integer_sturm_chain_matches_the_fraction_chain(low, lead, ends):
    # every member a positive multiple of the classical member, so the
    # counts agree on any interval
    coeffs = low + [lead]
    chain, reference = _sturm_chain(coeffs), _fraction_sturm_chain(coeffs)
    assert len(chain) == len(reference)
    for member, ref in zip(chain, reference):
        ratio = member[-1] / ref[-1]
        assert len(member) == len(ref) and ratio > 0
        assert all(c == ratio * r for c, r in zip(member, ref))
    lo, hi = _ends(ends)
    assert _sturm_count(chain, *_cell(lo, hi)) == _fraction_sturm_count(reference, lo, hi)


@settings(max_examples=150, deadline=None)
@given(_POLYS, _ENDS)
@example([-1, -1, -2, 0], (27, 1, 16))  # q2: x^4 - 2x^2 - x - 1 over [27/16, 28/16]
@example([-1, 1, -2], (5, 1, 3))  # qf over [5/3, 2]
@example([-16, -15, 8, -2, 3, -5, -5, 8, -9, 4, -9, 13, -19, 1, -2, -8, -13, -4, 9, -10, 18, 13,
          -18, -9], (-43, 64, 3))  # degree 24: a grid cell, then five bisections
def test_interval_matches_the_fraction_construction(low, ends):
    coeffs, (lo, hi) = low + [1], _ends(ends)
    try:
        got = define_field(coeffs, (lo, hi)).interval()
    except (ReduciblePolynomial, NoRootInInterval, AmbiguousInterval) as exc:
        got = type(exc)
    assert got == _fraction_interval(coeffs, lo, hi)


def _outcome(construct, coeffs, iso):
    """``construct(coeffs, iso)``, or the type and message of the refusal
    it raises."""
    try:
        return construct(coeffs, iso)
    except ValueError as exc:
        return type(exc), str(exc)


def _certified(coeffs, iso):
    """The cell, the sign at its lower end and the interval of the field."""
    F = define_field(coeffs, iso)
    return F._cell, F._sign_lo, F.interval()


def _grid_certified(coeffs, iso):
    (a, b, d), sign_lo = grid_construction(coeffs, iso)
    return (a, b, d), sign_lo, (Fraction(a, d), Fraction(b, d))


def _squared(low):
    """The square of the monic polynomial with coefficients ``low`` below
    the leading 1: each of its real roots has even multiplicity."""
    return _poly_times(low + [1], low + [1])[:-1]


@st.composite
def _constructions(draw):
    """A monic polynomial of degree 2 to 64, or the square of a quadratic,
    and a rational interval: any, or, half the time when the polynomial
    changes sign between sixteenths in [-4, 4], a cell of 1/16 around one
    such change widened by up to 1/8 each side."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 64))
        low = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    else:
        low = _squared(draw(st.lists(st.integers(-9, 9), min_size=2, max_size=2)))
    coeffs = tuple(low) + (1,)
    signs = [numberfield._sign_at(coeffs, i, 16) for i in range(-64, 65)]
    changes = [i - 64 for i in range(128) if signs[i] * signs[i + 1] < 0]
    if changes and draw(st.booleans()):
        i = draw(st.sampled_from(changes))
        return coeffs, (Fraction(16 * i - draw(st.integers(0, 32)), 256),
                        Fraction(16 * i + 16 + draw(st.integers(0, 32)), 256))
    k = draw(st.sampled_from([1, 3, 16, 100, 1024]))
    m = draw(st.integers(-4 * k, 4 * k))
    return coeffs, (Fraction(m, k), Fraction(m + draw(st.integers(1, 2 * k)), k))


@settings(max_examples=100, deadline=None)
@given(_constructions())
@example(((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))))  # q2, as q2_field()
@example(((-1, 1, -2, 1), (Fraction(5, 3), Fraction(2))))  # qf over [5/3, 2]
@example(((4, 0, -4, 0, 1), (Fraction(1), Fraction(2))))  # (x^2 - 2)^2: no sign change
def test_construction_matches_the_grid_reference(case):
    # bisection from the interval's ends certifies the grid's cell and the
    # sign at its lower end, and refuses what the grid refuses, as it does
    coeffs, iso = case
    assert _outcome(_certified, coeffs, iso) == _outcome(_grid_certified, coeffs, iso)


@settings(max_examples=150, deadline=None)
@given(_POLYS, st.integers(-20, 20).filter(bool), _ENDS)
def test_integer_enclosure_is_the_scaled_fraction_enclosure(low, lead, ends):
    coeffs, (lo, hi) = low + [lead], _ends(ends)
    a, b, d = _cell(lo, hi)
    vlo, vhi = _fraction_enclosure(coeffs, lo, hi)
    scale = d ** (len(coeffs) - 1)
    assert _poly_over_interval(coeffs, a, b, d) == (vlo * scale, vhi * scale)


def test_dense_degree_64_field_is_built_fast(wall_time_limit):
    # 64 random 3-digit coefficients: over Q the remainder sequence's
    # coefficients grow through 63 divisions; its primitive integer form
    # keeps them small.  The interval is the one the Fraction construction
    # certifies (about 10 s of Fraction arithmetic, so not recomputed here)
    rng = random.Random(1)
    coeffs = [rng.randint(-999, 999) for _ in range(64)] + [1]
    wall_time_limit(1)
    assert define_field(coeffs, (1, 2)).interval() == (Fraction(31, 16), Fraction(63, 32))


def test_define_field_rejects_rational_root():
    with pytest.raises(ReduciblePolynomial):
        define_field((-1, 0, 1), (Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(ReduciblePolynomial):
        define_field((0, -1, 1), (Fraction(1, 2), Fraction(3, 2)))


def test_rational_root_screen_does_not_factor_a_large_constant_term(wall_time_limit):
    # trial division up to sqrt(c0) would take about 10^49 steps
    wall_time_limit(2)
    n = 10**99 + 7
    assert math.isqrt(n) ** 2 != n
    assert define_field((-n, 0, 1), (1, 10**50)).degree == 2


@pytest.mark.parametrize("iso, root", [
    ((1, 10**6000), (1, 2)),  # the golden ratio
    ((-10**6000, 0), (-1, 0)),  # its conjugate, -0.618...
])
def test_first_sign_over_a_wide_interval_starts_at_the_cauchy_bound(wall_time_limit, iso, root):
    # the sign filter's private cell starts clamped to [-M, M], M = 1 + max
    # |c_i| = 2: halving down from the whole 10^6000-wide cell took seconds;
    # the isolating interval stays as certified, a 32nd of iso
    F = define_field((-1, -1, 1), iso)
    certified = F.interval()
    wall_time_limit(1)
    lo, hi = root
    assert (F.q - lo).sign() == 1 and (F.q - hi).sign() == -1
    assert (2 * F.q - 1).sign() == lo and (5 * F.q - 3).sign() == lo
    assert F.interval() == certified
    assert certified[1] - certified[0] == Fraction(iso[1] - iso[0], 32)


_A = 10**50


@pytest.mark.parametrize("poly, root", [
    ((2 * _A, -2, -_A, 1), _A),  # (x - 10^50)(x^2 - 2)
    ((-2 * _A**2, -4 * _A, _A**2 - 2, 2 * _A, 1), -_A),  # (x + 10^50)^2 (x^2 - 2)
])
def test_rational_root_screen_finds_a_large_integer_root(wall_time_limit, poly, root):
    # the screen names the root, a double one too; the interval holds sqrt 2
    wall_time_limit(2)
    with pytest.raises(ReduciblePolynomial, match=f"rational root {root}$"):
        define_field(poly, (1, 2))


def _poly_times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_NONZERO = st.integers(-20, 20).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NONZERO, max_size=3), st.lists(st.integers(-5, 5), max_size=3),
       st.integers(-5, 5).filter(bool))
def test_rational_root_screen_matches_trial_division(roots, middle, constant):
    # (x - r1)(x - r2)...: repeated roots too, times a monic cofactor with a
    # nonzero constant term; the screen names the root of least size that
    # trial division over the divisors of the constant term finds first
    poly = [constant, *middle, 1]
    for r in roots:
        poly = _poly_times(poly, [-r, 1])
    if len(poly) < 3:
        poly = _poly_times(poly, [-7, 1])
    c0 = abs(poly[0])
    found = [r for d in range(1, c0 + 1) if c0 % d == 0 for r in (d, -d)
             if sum(c * r**i for i, c in enumerate(poly)) == 0]
    try:
        define_field(poly, (Fraction(1, 3), Fraction(2, 3)))
        message = None
    except ReduciblePolynomial as exc:
        message = str(exc)
    except (NoRootInInterval, AmbiguousInterval):
        message = None
    assert message == (f"rational root {found[0]}" if found else None)


def test_define_field_rejects_a_double_root_without_a_sign_change():
    # (x^2 - 2)^2: the Sturm count finds the one distinct root sqrt 2, but
    # the polynomial is >= 0 at every grid point
    with pytest.raises(NoRootInInterval, match="no sign change"):
        define_field((4, 0, -4, 0, 1), (1, 2))


def test_refinement_gives_up_on_a_root_of_multiplicity_three():
    # (x^2 - 2)^3: one root in (1, 2), where the derivative also vanishes,
    # so no bisection makes the derivative sign-definite
    with pytest.raises(AmbiguousInterval, match="could not certify a simple root by refinement"):
        define_field((-8, 0, 12, 0, -6, 0, 1), (1, 2))


def _fibonacci_signs(F):
    """Signs of F(n+1) - F(n) * q for n = 1..400, with F(n) the Fibonacci
    numbers: at the golden ratio q the value is (-1)^n * q^-n, which falls
    to about 2^-278 while the numerators grow to about 2^278."""
    q, signs = F.q, []
    a, b = 1, 1
    for _ in range(400):
        signs.append(sign(b - a * q))
        a, b = b, a + b
    return signs


_ALTERNATING = [(-1) ** n for n in range(1, 401)]


def test_zero_bound_near_its_tightest():
    # in degree 2 the zero bound sits only a few bits above what these
    # values need: a smaller bound would call some of them 0
    assert _fibonacci_signs(golden_field()) == _ALTERNATING


def test_sign_refuses_an_element_vanishing_at_q_of_a_reducible_polynomial(wall_time_limit):
    # (x^2 - x - 1)(x^2 + 1) passes the rational-root screen; around the
    # golden ratio, q^2 - q - 1 is a nonzero element whose value is 0
    F = define_field((-1, -1, 0, -1, 1), (Fraction(3, 2), Fraction(17, 10)))
    q = F.q
    wall_time_limit(10)
    with pytest.raises(ReduciblePolynomial, match="vanishing at q"):
        (q * q - q - 1).sign()
    assert (q * q - q).sign() == 1  # a nonzero value keeps its sign
    # values next to 0 keep theirs too: the zero bound holds for a reducible
    # polynomial
    assert _fibonacci_signs(F) == _ALTERNATING


def test_define_field_rejects_empty_interval():
    with pytest.raises(ValueError):
        define_field((-1, -1, 1), (Fraction(2), Fraction(1)))


def test_operators():
    F = q2_field()
    q = F.q
    assert q + q == 2 * q
    assert q - q == 0
    assert 1 - q == -(q - 1)
    assert (q**2) ** 2 == 2 * q**2 + q + 1
    assert q**-2 == 1 / q**2
    assert (1 / q) * q == 1
    assert abs(1 - q) == q - 1
    assert float(q) == pytest.approx(1.710644095045033, abs=1e-12)


def test_division_by_zero():
    F = q2_field()
    with pytest.raises(ZeroDivisionError):
        1 / F.zero


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        q2_field().q + qf_field().q


def test_cross_field_equality_is_false():
    assert q2_field().q != qf_field().q
    # identical rationals still compare equal through coercion
    assert q2_field().one == 1
    assert q2_field().from_rational(Fraction(1, 2)) == Fraction(1, 2)


def test_sign_and_compare():
    F = q2_field()
    q = F.q
    assert sign(q - 1) == 1
    assert sign(1 - q) == -1
    assert sign(q - q) == 0
    # q - 1 > 1/q in this field
    assert compare(q - 1, 1 / q) == 1
    assert compare(1 / q, q - 1) == -1
    assert compare(q, q) == 0
    with pytest.raises(TypeError):
        compare(q, "not a number")


def test_greater_or_equal():
    F = q2_field()
    q = F.q
    assert q >= q and q >= 1 and q >= Fraction(3, 2)
    assert not q >= 2 and not (q - 1) >= Fraction(3, 4)
    assert F.from_rational(Fraction(1, 2)) >= Fraction(1, 2) and F.one >= 1
    assert 2 >= q and not 1 >= q  # reflected to __le__
    assert q.__ge__("not a number") is NotImplemented
    with pytest.raises(TypeError):
        q >= "not a number"


# the operators that share one operand guard: (dunder, operator, reflected)
_COERCED_OPERATORS = [
    ("__add__", operator.add, False),
    ("__sub__", operator.sub, False),
    ("__rsub__", operator.sub, True),
    ("__mul__", operator.mul, False),
    ("__truediv__", operator.truediv, False),
    ("__rtruediv__", operator.truediv, True),
    ("__lt__", operator.lt, False),
    ("__le__", operator.le, False),
    ("__gt__", operator.gt, False),
    ("__ge__", operator.ge, False),
]


@pytest.mark.parametrize("dunder, op, reflected", _COERCED_OPERATORS)
@pytest.mark.parametrize("other", ["not a number", 1.5])
def test_coerced_operators_refuse_a_foreign_operand(dunder, op, reflected, other):
    q = q2_field().q
    assert getattr(q, dunder)(other) is NotImplemented
    with pytest.raises(TypeError):
        op(other, q) if reflected else op(q, other)


@pytest.mark.parametrize("dunder, op, reflected", _COERCED_OPERATORS)
def test_coerced_operators_refuse_another_fields_element(dunder, op, reflected):
    q, f = q2_field().q, qf_field().q
    with pytest.raises(MixedFields):
        getattr(q, dunder)(f)
    with pytest.raises(MixedFields):
        op(f, q) if reflected else op(q, f)
    # ints and Fractions still coerce: each operator answers like its
    # operand's field element
    for r in (2, Fraction(3, 2)):
        assert getattr(q, dunder)(r) == getattr(q, dunder)(q2_field().from_rational(r))


def test_element_coefficient_reduction():
    F = q2_field()
    # q^4 and q^5 reduce to degree < 4 with the defining relation
    q = F.q
    assert (q**4).coeffs == (Fraction(1), Fraction(1), Fraction(2), Fraction(0))
    assert len((q**7).coeffs) == 4


def test_element_vector_too_long():
    F = q2_field()
    with pytest.raises(ValueError):
        F.element((1, 2, 3, 4, 5))


def test_to_decimal_rounds_half_even():
    F = q2_field()
    r = F.from_rational
    assert to_decimal(r(Fraction(1, 8)), 2) == "0.12"
    assert to_decimal(r(Fraction(3, 8)), 2) == "0.38"
    assert to_decimal(r(Fraction(1, 4)), 1) == "0.2"
    assert to_decimal(r(Fraction(-1, 8)), 2) == "-0.12"
    assert to_decimal(F.zero, 6) == "0.000000"


def test_str_rendering():
    F = q2_field()
    assert str(F.zero) == "0"
    assert str(F.one) == "1"
    assert str(F.q) == "q"
    assert "q^2" in str(F.q**2)


def test_rational_detection():
    F = q2_field()
    x = F.from_rational(Fraction(7, 3))
    assert x.is_rational() and x.as_rational() == Fraction(7, 3)
    assert not F.q.is_rational()
    with pytest.raises(ValueError):
        F.q.as_rational()


def test_refined_enclosure_narrows():
    # the Fraction reference the sign tests below compare against
    q = q2_field().q
    lo, hi = enclosure(q, Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    # the root lies strictly between these 20-digit rational brackets
    assert lo < Fraction("1.71064409504503293600")
    assert hi > Fraction("1.71064409504503293599")


_small = st.builds(
    Fraction, st.integers(-8, 8), st.integers(1, 8)
)
_vectors = st.tuples(_small, _small, _small, _small)


@st.composite
def _elements(draw):
    return q2_field().element(draw(_vectors))


@settings(max_examples=60, deadline=None)
@given(_elements(), _elements(), _elements())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a - a == q2_field().zero


@settings(max_examples=60, deadline=None)
@given(_elements(), _elements())
def test_sign_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()


@settings(max_examples=40, deadline=None)
@given(_elements())
def test_division_round_trip(a):
    if a.is_zero():
        return
    b = a * q2_field().q
    assert b / a == q2_field().q


@settings(max_examples=40, deadline=None)
@given(_elements(), st.integers(1, 10))
def test_to_decimal_accuracy(x, digits):
    # the printed decimal is within half an ulp of the exact value
    printed = Fraction(to_decimal(x, digits))
    diff = x - x.field.from_rational(printed)
    bound = x.field.from_rational(Fraction(1, 2 * 10**digits))
    assert (diff - bound).sign() <= 0 and (diff + bound).sign() >= 0


@settings(max_examples=40, deadline=None)
@given(_elements(), _elements())
def test_comparison_total_order(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
    if a < b:
        assert b > a and a <= b and not b <= a


# ---------------------------------------------------------------------------
# the integer sign filter

# fields built here, apart from the process-wide ones other tests use
_FILTER_FIELDS = {
    "q2": define_field((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))),
    "qf": define_field((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5))),
    "golden": define_field((-1, -1, 1), (Fraction(3, 2), Fraction(17, 10))),
}


def _bounds(F):
    q = F.q
    return (1 / q, 1 / (q * (q - 1)), 1 / (q - 1))


def _near(b, k, delta):
    """b minus a dyadic rational within (|delta| + 1) * 2^-k of b's value."""
    lo, _ = enclosure(b, Fraction(1, 2 ** (k + 2)))
    return b - Fraction(math.floor(lo * 2**k) + delta, 2**k)


def _filter_decides(x):
    s, err = x._scaled()
    return abs(s) > err


def _exact_sign(x):
    """The sign by Fraction interval refinement alone."""
    lo, hi = enclosure(x)
    return (lo > 0) - (hi < 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_FILTER_FIELDS)), st.integers(0, 2), st.integers(1, 200),
       st.integers(-2, 2))
def test_filtered_sign_matches_exact_near_bounds(name, which, k, delta):
    x = _near(_bounds(_FILTER_FIELDS[name])[which], k, delta)
    assert x.sign() == _exact_sign(x)


def test_filter_decides_near_bounds_down_to_its_resolution():
    # 2^-100 from a bound is well inside the filter's reach at 128 bits
    for F in _FILTER_FIELDS.values():
        for b in _bounds(F):
            if b.is_rational():  # golden: 1/(q(q-1)) = 1
                continue
            x = _near(b, 100, 0)
            assert _filter_decides(x) and x.sign() == _exact_sign(x) == 1


def test_sign_below_filter_resolution_falls_back(monkeypatch):
    F = define_field((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25)))
    iv = F.interval()
    b = 1 / F.q
    lo, hi = enclosure(b, Fraction(1, 2**210))
    above, below = b - lo, b - hi  # b is irrational: strictly inside (lo, hi)
    fallbacks = []
    exact = AlgebraicReal._exact_sign
    monkeypatch.setattr(AlgebraicReal, "_exact_sign",
                        lambda self: fallbacks.append(self) or exact(self))
    for x, expected in ((above, 1), (below, -1), (-above, -1)):
        assert not _filter_decides(x)
        assert x.sign() == expected
    assert fallbacks == [above, below, -above]
    assert F.interval() == iv  # the fallback escalates the filter, not the interval


def test_first_filtered_sign_leaves_the_interval():
    F = define_field((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5)))
    iv = F.interval()
    assert not F._fine and F._filter_sum is None  # nothing is computed before the first sign
    assert (F.q - 1).sign() == 1
    assert FILTER_BITS in F._fine and F._filter_sum is not None
    assert F.interval() == iv


@pytest.mark.parametrize("poly, iso", [
    ((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))),
    ((-5, 0, 1), (Fraction(-3), Fraction(-2))),  # q = -sqrt 5
    ((-7, 3, -5, 1), (Fraction(4), Fraction(6))),  # q ~ 4.8
    ((-1, -1, 0, 1), (Fraction(13, 10), Fraction(7, 5))),
    ((-1, 0, -5000, 1), (4999, 5001)),  # q ~ 5000: q^2 needs a finer cell than q
])
@pytest.mark.parametrize("bisections", [0, 300])
def test_scaled_powers_error_bound(poly, iso, bisections):
    # 300 bisections leave the certified interval finer than the filter
    # needs; the precisions halve the private cell, halve it further, then
    # read it as it is
    F = define_field(poly, iso)
    F.refine(bisections)
    for p in (FILTER_BITS, 2048, 512):
        for i, Q in enumerate(F._scaled_powers(p)):
            lo, hi = enclosure(F.q**i, Fraction(1, 2 ** (p + 8)))
            assert lo * 2**p - Fraction(3, 2) < Q < hi * 2**p + Fraction(3, 2)
    assert F._scaled_powers() is F._scaled_powers(FILTER_BITS)


def test_scaled_powers_halve_a_private_cell_past_what_q_alone_needs():
    # q^3 = 5000 q^2 + 1, q ~ 5000 + 4e-8: a cell w wide brackets q^2 about
    # 2q * w ~ 2^13.3 * w wide, so for every power to be 2^-p close the
    # private cell halves 14 bits past the 2^-p that q alone needs
    F = define_field((-1, 0, -5000, 1), (4999, 5001))
    lo, hi = iv = F.interval()
    assert F._bracket is None
    coarser = None
    for p in (FILTER_BITS, 512):
        powers = F._scaled_powers(p)
        a, b, d = F._bracket
        assert (b - a) << (p + 13) <= d and (b * b - a * a) << p <= d * d
        assert lo <= Fraction(a, d) < F.q < Fraction(b, d) <= hi
        if coarser:  # the finer precision halves the same cell further
            assert d % coarser[2] == 0 and Fraction(a, d) >= Fraction(coarser[0], coarser[2])
        coarser = a, b, d
        assert powers == (1 << p, ((a + b) << p) // (2 * d), ((a * a + b * b) << p) // (2 * d * d))
    assert F.interval() == iv
    # test_scaled_powers_error_bound checks the powers; the compiled filter
    # sum reads them
    Q0, Q1, Q2 = F._scaled_powers(FILTER_BITS)
    assert F._filter()((3, -2, 1)) == (3 * Q0 - 2 * Q1 + Q2, 14)
    assert 0 < F.q - 5000 < Fraction(1, 10**7)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([((-5, 0, 1), (-3, -2)), ((-7, 3, -5, 1), (4, 6))]),
       st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 9)))
def test_filtered_sign_on_unusual_bases(spec, vec):
    F = define_field(*spec)
    x = F.element(vec[:F.degree])
    assert x.sign() == _exact_sign(x)


def test_lattice_form_is_reduced():
    F = q2_field()
    x = F.element((Fraction(1, 2), Fraction(3, 4), 0, Fraction(-5, 6)))
    assert (x.num, x.den) == ((6, 9, 0, -10), 12)
    assert (x + x).den == 6 and (x - x).den == 1
    assert x.coeffs == (Fraction(1, 2), Fraction(3, 4), Fraction(0), Fraction(-5, 6))
    assert x.times_q_minus(1) == x * F.q - 1


def _via_fraction(F, coeffs):
    """The lattice form of sum(coeffs[i] * q^i), every coefficient
    normalized through Fraction first."""
    vec = [Fraction(c) for c in coeffs] + [Fraction(0)] * (F.degree - len(coeffs))
    den = math.lcm(*(c.denominator for c in vec))
    return tuple(c.numerator * (den // c.denominator) for c in vec), den


# ints and Fractions are read as they are; the rest go through Fraction
_RATIONALS = st.one_of(
    st.integers(-2**80, 2**80),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**70)),
    st.sampled_from([True, "3/4", "-7", 0.5]),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([golden_field(), q2_field()]), _RATIONALS, _RATIONALS)
def test_coercion_matches_the_fraction_path(F, r, s):
    x = F.from_rational(r)
    assert (x.num, x.den) == _via_fraction(F, [r])
    assert hash(x) == hash(Fraction(r))
    y = F.element([r, s])
    assert (y.num, y.den) == _via_fraction(F, [r, s])
    # a bool is normalized too: True enters as the int 1
    assert {type(n) for n in (*x.num, x.den, *y.num, y.den)} == {int}


def _det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
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


def _ref_inverse(x):
    """The lattice form of 1/x from the adjugate, by n + 1 determinants:
    with x = N(q) / den and M the matrix of multiplication by N(q), 1/N(q)
    is adj(M) e_0 / det M, and adj(M)[i][0] is the (0, i) cofactor."""
    F = x.field
    cols = [x.num]
    for _ in range(F.degree - 1):
        cols.append(F._step(cols[-1]))
    rows = [list(r) for r in zip(*cols)]
    det = _det(rows)
    adj = [(-1) ** i * _det([r[:i] + r[i + 1:] for r in rows[1:]]) for i in range(len(rows))]
    if det < 0:
        det, adj = -det, [-a for a in adj]
    num = [a * x.den for a in adj]
    g = math.gcd(det, *num)
    return tuple(a // g for a in num), det // g


_INVERSE_FIELDS = [golden_field(), qf_field(), q2_field(),
                   define_field((-2, 0, 0, 1), (1, 2))]  # cube root of 2: q is no unit
# small coefficients, and numerators past 2^64
_INVERSE_COEFFS = st.one_of(_small, st.builds(Fraction, st.integers(-2**100, 2**100),
                                              st.integers(1, 2**70)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_INVERSE_FIELDS), st.lists(_INVERSE_COEFFS, min_size=1, max_size=4))
@example(q2_field(), [0, 1])  # q and q^2: the first pivot is 0, so rows swap
@example(q2_field(), [0, 0, 1])
def test_inverse_in_several_fields(F, vec):
    x = F.element(vec[:F.degree])
    if x.is_zero():
        return
    inv = x.inverse()
    assert x * inv == 1
    assert inv.inverse() == x
    assert (inv.num, inv.den) == _ref_inverse(x)


_DEGREE_64 = define_field([-1, -1] + [0] * 62 + [1], (1, 2))  # x^64 - x - 1


@pytest.mark.parametrize("vec", [[0, 1], [Fraction(-3, 4), Fraction(5, 7), 0, Fraction(8, 3)]])
def test_inverse_at_degree_64(vec):
    # the reference takes about a second for each of these
    x = _DEGREE_64.element(vec)
    inv = x.inverse()
    assert x * inv == 1
    assert (inv.num, inv.den) == _ref_inverse(x)


def test_inverse_detects_a_reducible_polynomial():
    # (x^2 - x - 1)(x^2 + 1) passes the rational-root screen, and its q is
    # the golden ratio; q^2 + 1 shares the factor x^2 + 1, so it has no inverse
    F = define_field((-1, -1, 0, -1, 1), (Fraction(3, 2), Fraction(17, 10)))
    with pytest.raises(ReduciblePolynomial):
        (F.q**2 + 1).inverse()
    with pytest.raises(ReduciblePolynomial):
        1 / (F.q**2 + 1)


def test_high_degree_word_value_is_fast(wall_time_limit):
    # 1(0)* is worth 1/q, one division by q: q^119 - 1 since q^120 = q + 1;
    # (01)* is worth 1/(q^2 - 1), one inverse of a degree-120 element
    wall_time_limit(2)
    F = define_field([-1, -1] + [0] * 118 + [1], (1, 2))
    assert eval_word(parse_word("1(0)*"), F) == F.q**119 - 1
    assert eval_word(parse_word("(01)*"), F) * (F.q**2 - 1) == 1


def test_high_degree_domain_bounds_are_fast(wall_time_limit):
    # the first sign of a degree-120 field: the private cell halves only
    # until every power of q is bracketed closely enough
    F = define_field([-1, -1] + [0] * 118 + [1], (1, 2))
    wall_time_limit(1)
    switch_lo, _, top = F.domain_bounds()
    assert switch_lo == F.q**119 - 1 and top * (F.q - 1) == 1


@pytest.mark.parametrize("coeffs, iso, inside", [
    # cells inside [1, 2], below 1 and above 2 decide by themselves
    ((-1, -1, 1), (1, 2), True),
    ((-1, 1, 1), (Fraction(1, 2), Fraction(7, 10)), False),  # q ~ 0.618
    ((-5, 0, 1), (2, 3), False),  # q = sqrt 5
    # cells that straddle 1 or 2 take the exact comparison:
    # x^5 - x - 1 has q ~ 1.1673, x^10 - 2x^9 - 1 has q ~ 2.00195
    ((-1, -1, 0, 0, 0, 1), (Fraction(99, 100), Fraction(699, 100)), True),
    ((-1,) + (0,) * 8 + (-2, 1), (Fraction(19, 10), Fraction(29, 10)), False),
], ids=["inside", "below-1", "above-2", "straddles-1", "straddles-2"])
def test_domain_bounds_decide_the_base_from_the_cell_or_exactly(coeffs, iso, inside):
    F = define_field(coeffs, iso)
    a, b, d = F._cell
    straddles = a < d < b or a < 2 * d < b
    assert straddles == (len(coeffs) > 3)
    if inside:
        assert F.domain_bounds()[2] * (F.q - 1) == 1
    else:
        with pytest.raises(ValueError, match="outside"):
            F.domain_bounds()


def test_a_base_far_above_2_is_refused_without_reading_q_closely(wall_time_limit):
    # 16 negative 100-digit coefficients: one positive root, near 4.5e99; the
    # exact comparison with 2 would halve the private cell for seconds
    rng = random.Random(1)
    F = define_field([-rng.randrange(10**99, 10**100) for _ in range(16)] + [1], (1, 10**100))
    wall_time_limit(1)
    with pytest.raises(ValueError, match="outside"):
        F.domain_bounds()
    assert F._bracket is None


def test_orbit_step_reduces_when_q_is_no_unit():
    F = define_field((-2, 0, 1), (1, 2))  # q = sqrt 2
    x = F.q / 2
    assert (x.num, x.den) == ((0, 1), 2)
    one = x.times_q_minus(0)
    assert (one.num, one.den) == ((1, 0), 1) and one == 1


# ---------------------------------------------------------------------------
# decimals from the scaled sums

_DECIMAL_FIELDS = {
    "q2": ((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))),
    "qf": ((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5))),
    "golden": ((-1, -1, 1), (Fraction(3, 2), Fraction(17, 10))),
    "sqrt2": ((-2, 0, 1), (1, 2)),
    "cubic": ((-2, 0, -1, 1), (Fraction(8, 5), Fraction(9, 5))),  # x^3 - x^2 - 2
    "sqrt5": ((-5, 0, 1), (2, 3)),
    "-sqrt5": ((-5, 0, 1), (-3, -2)),
    "4.8": ((-7, 3, -5, 1), (4, 6)),
}
# the reference evaluates words in twin fields of its own
_REFERENCE_TWINS = {name: define_field(*spec) for name, spec in _DECIMAL_FIELDS.items()}


def _enclosure_decimal(x, digits):
    """Reference decimal by rational enclosures: round both ends of the
    value's enclosure half to even, and narrow the enclosure until they
    agree."""

    def rounded(r):
        scaled = r * 10**digits
        floor = scaled.numerator // scaled.denominator
        rem2 = 2 * (scaled - floor)
        if rem2 > 1 or (rem2 == 1 and floor % 2 == 1):
            floor += 1
        text = str(abs(floor)).rjust(digits + 1, "0")
        if digits:
            text = f"{text[:-digits]}.{text[-digits:]}"
        return f"-{text}" if floor < 0 else text

    width = Fraction(1, 256)
    while True:
        vlo, vhi = enclosure(x, width)
        slo = rounded(vlo)
        if slo == rounded(vhi):
            return slo
        width /= 256


_big = st.integers(-2**200, 2**200)


@st.composite
def _decimal_cases(draw):
    """(field name, numerators, denominator): a lattice element with big
    numerators, or the value of a word with a preperiod of up to 400 digits."""
    name = draw(st.sampled_from(sorted(_DECIMAL_FIELDS)))
    degree = len(_DECIMAL_FIELDS[name][0]) - 1
    if draw(st.booleans()):
        num = draw(st.lists(_big, min_size=degree, max_size=degree))
        den = draw(st.integers(1, 2**200))
    else:
        bits = st.integers(0, 1)
        n = draw(st.integers(0, 400))
        word = PeriodicWord(draw(st.lists(bits, min_size=n, max_size=n)),
                            draw(st.lists(bits, min_size=1, max_size=8)))
        x = eval_word(word, _REFERENCE_TWINS[name])
        num, den = x.num, x.den
    return name, num, den


@settings(max_examples=150, deadline=None)
@given(_decimal_cases(), st.integers(0, 120))
def test_to_decimal_matches_enclosure_reference(case, digits):
    name, num, den = case
    x = define_field(*_DECIMAL_FIELDS[name]).element([Fraction(n, den) for n in num])
    twin = AlgebraicReal(_REFERENCE_TWINS[name], x.num, x.den)
    assert to_decimal(x, digits) == _enclosure_decimal(twin, digits)


def test_to_decimal_refuses_negative_digits():
    with pytest.raises(ValueError, match="digits must be >= 0"):
        to_decimal(q2_field().q, -1)


def test_to_decimal_leaves_the_interval(monkeypatch):
    F = define_field(*_DECIMAL_FIELDS["q2"])
    x = 1 / (F.q - 1)
    assert x.sign() == 1  # the filter's powers exist, as on any busy field
    iv = F.interval()
    calls = []
    refine = BaseField.refine
    monkeypatch.setattr(BaseField, "refine",
                        lambda self, steps=1: calls.append(steps) or refine(self, steps))
    got = to_decimal(x, 60)
    assert calls == [] and F.interval() == iv
    twin = AlgebraicReal(_REFERENCE_TWINS["q2"], x.num, x.den)
    assert got == _enclosure_decimal(twin, 60)


@pytest.mark.parametrize("name", ["q2", "cubic"])
def test_to_decimal_escalates_its_precision(monkeypatch, name):
    # started at 64 bits, which cannot place 60 digits, the precision grows
    # by 64 bits a round until both ends of the sum round alike
    F = define_field(*_DECIMAL_FIELDS[name])
    cases = [(1 / (F.q - 1), 60), (F.q**5 / 7 - 3, 40), (-F.q / 3, 25)]
    precisions = []
    scaled = BaseField._scaled_powers
    monkeypatch.setattr(numberfield, "_precision", lambda bits: 64)
    monkeypatch.setattr(BaseField, "_scaled_powers",
                        lambda self, p=None: precisions.append(p) or scaled(self, p))
    for x, digits in cases:
        precisions.clear()
        got = to_decimal(x, digits)
        assert precisions[0] == 64 and len(precisions) > 1
        assert precisions == list(range(64, 64 * len(precisions) + 1, 64))
        twin = AlgebraicReal(_REFERENCE_TWINS[name], x.num, x.den)
        assert got == _enclosure_decimal(twin, digits)


def test_float_leaves_the_interval(monkeypatch):
    F = define_field(*_DECIMAL_FIELDS["q2"])
    iv = F.interval()
    calls = []
    refine = BaseField.refine
    monkeypatch.setattr(BaseField, "refine",
                        lambda self, steps=1: calls.append(steps) or refine(self, steps))
    assert float(F.q) == pytest.approx(1.710644095045033, abs=1e-15)
    assert calls == [] and F.interval() == iv


@settings(max_examples=150, deadline=None)
@given(_decimal_cases())
def test_float_is_within_2_to_the_minus_60(case):
    name, num, den = case
    x = define_field(*_DECIMAL_FIELDS[name]).element([Fraction(n, den) for n in num])
    twin = AlgebraicReal(_REFERENCE_TWINS[name], x.num, x.den)
    vlo, vhi = enclosure(twin, Fraction(1, 2**80))
    got = float(x)
    # the scaled sum lies within 2^-60, and float() rounds it to nearest
    assert vlo - Fraction(1, 2**60) - Fraction(math.ulp(got)) / 2 <= Fraction(got)
    assert Fraction(got) <= vhi + Fraction(1, 2**60) + Fraction(math.ulp(got)) / 2


@settings(max_examples=300, deadline=None)
@given(st.integers(-2**80, 2**80), st.integers(1, 2**80))
@example(2**53 + 1, 1)  # rounds to nearest, and to even, below n
@example(-(2**53 + 1), 1)
@example(2**53 + 3, 1)  # rounds to nearest, and to even, above n
@example(0, 7)
@example(1, 3)
@example(-1, 3)
def test_float_up_and_its_negation_bracket_the_ratio(n, d):
    # the tracker's constants are ratios of integers rounded once outward:
    # _float_up(n, d) is the least double at or above n/d, and
    # -_float_up(-n, d) the greatest at or below it, checked exactly
    exact = Fraction(n, d)
    up = numberfield._float_up(n, d)
    assert Fraction(up) >= exact > Fraction(math.nextafter(up, -math.inf))
    down = -numberfield._float_up(-n, d)
    assert Fraction(down) <= exact < Fraction(math.nextafter(down, math.inf))


# the methods through which a call changes a dict, list or set in place
_MUTATORS = frozenset(("append", "clear", "extend", "insert", "pop", "popitem", "remove",
                       "setdefault", "update", "add", "discard"))


def _slot_writes(tree: ast.AST, slots: frozenset) -> list[tuple[str, int]]:
    """(slot, line) for each write to an attribute named in ``slots``: an
    assignment, augmented assignment or del of it or of an item of it, a
    call of one of its mutating methods, or a setattr or delattr naming
    it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            targets = [node.func.value] if node.func.attr in _MUTATORS else []
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in slots):
            found.append((node.args[1].value, node.lineno))
            continue
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Subscript):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute) and target.attr in slots:
                found.append((target.attr, node.lineno))
    return found


def test_only_numberfield_writes_a_field_slot_but_branchings_memo():
    # a field's derived constants have one owner: no other module of the
    # package assigns to a BaseField slot or changes one in place, except
    # branching, which replaces the field's memo whole
    slots = frozenset(BaseField.__slots__)
    outside = {}
    for path in sorted(Path(numberfield.__file__).parent.glob("*.py")):
        if path.name != "numberfield.py":
            for slot, line in _slot_writes(ast.parse(path.read_text()), slots):
                outside.setdefault(slot, []).append(f"{path.name}:{line}")
    assert list(outside) == ["_memo"], outside
    assert {where.partition(":")[0] for where in outside["_memo"]} == {"branching.py"}
