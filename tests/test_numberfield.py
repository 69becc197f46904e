"""Exact arithmetic in Q(q): field construction, operators, signs, decimals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    _sturm_count,
    sign,
    to_decimal,
)
from betaforge.words import PeriodicWord, eval_word


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
    assert _sturm_count(poly, Fraction(iso[0]), Fraction(iso[1])) == roots


def test_define_field_rejects_rational_root():
    with pytest.raises(ReduciblePolynomial):
        define_field((-1, 0, 1), (Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(ReduciblePolynomial):
        define_field((0, -1, 1), (Fraction(1, 2), Fraction(3, 2)))


def test_sign_refuses_an_element_vanishing_at_q_of_a_reducible_polynomial(wall_time_limit):
    # (x^2 - x - 1)(x^2 + 1) passes the rational-root screen; around the
    # golden ratio, q^2 - q - 1 is a nonzero element whose value is 0
    F = define_field((-1, -1, 0, -1, 1), (Fraction(3, 2), Fraction(17, 10)))
    q = F.q
    wall_time_limit(10)
    with pytest.raises(ReduciblePolynomial, match="vanishing at q"):
        (q * q - q - 1).sign()
    assert (q * q - q).sign() == 1  # a nonzero value keeps its sign


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
    q = q2_field().q
    lo, hi = q.refined_enclosure(Fraction(1, 10**12))
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

# fields of their own, so refining their intervals leaves the shared ones be
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
    lo, _ = b.refined_enclosure(Fraction(1, 2 ** (k + 2)))
    return b - Fraction(math.floor(lo * 2**k) + delta, 2**k)


def _filter_decides(x):
    s, err = x._scaled()
    return abs(s) > err


def _exact_sign(x):
    """The sign by interval refinement alone (which needs an irrational x)."""
    if x.is_rational():
        r = x.as_rational()
        return (r > 0) - (r < 0)
    return x._exact_sign()


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
            assert _filter_decides(x) and x.sign() == x._exact_sign() == 1


def test_sign_below_filter_resolution_falls_back(monkeypatch):
    F = define_field((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25)))
    b = 1 / F.q
    lo, hi = b.refined_enclosure(Fraction(1, 2**210))
    above, below = b - lo, b - hi  # b is irrational: strictly inside (lo, hi)
    fallbacks = []
    exact = AlgebraicReal._exact_sign
    monkeypatch.setattr(AlgebraicReal, "_exact_sign",
                        lambda self: fallbacks.append(self) or exact(self))
    for x, expected in ((above, 1), (below, -1), (-above, -1)):
        assert not _filter_decides(x)
        assert x.sign() == expected
    assert fallbacks == [above, below, -above]


def test_first_filtered_sign_leaves_the_interval():
    F = define_field((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5)))
    iv = F.interval()
    assert F._powers is None  # nothing is computed before the first sign
    assert (F.q - 1).sign() == 1
    assert F._powers is not None
    assert F.interval() == iv


@pytest.mark.parametrize("poly, iso", [
    ((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))),
    ((-5, 0, 1), (Fraction(-3), Fraction(-2))),  # q = -sqrt 5
    ((-7, 3, -5, 1), (Fraction(4), Fraction(6))),  # q ~ 4.8
    ((-1, -1, 0, 1), (Fraction(13, 10), Fraction(7, 5))),
])
@pytest.mark.parametrize("bisections", [0, 300])
def test_scaled_powers_error_bound(poly, iso, bisections):
    # the bisections leave an interval narrower than the filter's bracket;
    # the precisions take the first bracket, a finer one, then a shift of it
    F = define_field(poly, iso)
    F.refine(bisections)
    for p in (FILTER_BITS, 2048, 512):
        for i, Q in enumerate(F._scaled_powers(p)):
            lo, hi = (F.q**i).refined_enclosure(Fraction(1, 2 ** (p + 8)))
            assert lo * 2**p - Fraction(3, 2) < Q < hi * 2**p + Fraction(3, 2)
    assert F._scaled_powers() is F._scaled_powers(FILTER_BITS)


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
    assert hash(F.from_rational(Fraction(3, 2))) == hash(Fraction(3, 2))


_INVERSE_FIELDS = [golden_field(), qf_field(), q2_field(),
                   define_field((-2, 0, 0, 1), (1, 2))]  # cube root of 2: q is no unit


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_INVERSE_FIELDS), st.lists(_small, min_size=1, max_size=4))
def test_inverse_in_several_fields(F, vec):
    x = F.element(vec[:F.degree])
    if x.is_zero():
        return
    inv = x.inverse()
    assert x * inv == 1
    assert inv.inverse() == x


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
# the reference refines intervals of its own twin fields
_REFERENCE_TWINS = {name: define_field(*spec) for name, spec in _DECIMAL_FIELDS.items()}


def _enclosure_decimal(x, digits):
    """Reference decimal by rational enclosures: round both ends of the
    value's enclosure half to even, and refine the field's isolating interval
    until they agree."""

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

    while True:
        vlo, vhi = x.enclosure()
        slo = rounded(vlo)
        if slo == rounded(vhi):
            return slo
        x.field.refine(8)


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
    vlo, vhi = twin.refined_enclosure(Fraction(1, 2**80))
    got = float(x)
    # the scaled sum lies within 2^-60, and float() rounds it to nearest
    assert vlo - Fraction(1, 2**60) - Fraction(math.ulp(got)) / 2 <= Fraction(got)
    assert Fraction(got) <= vhi + Fraction(1, 2**60) + Fraction(math.ulp(got)) / 2
