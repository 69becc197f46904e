"""Word parsing, canonicalization, evaluation, regions, and reflection."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from betaforge.branching import Cardinality, count_expansions
from betaforge.numberfield import define_field, golden_field, q2_field, qf_field
from betaforge.words import (
    EmptyWordError,
    PeriodicWord,
    Region,
    WordSyntaxError,
    apply_digits,
    domain_bounds,
    eval_word,
    parse_word,
    reflect_point,
    reflect_word,
    region,
    t0,
    t1,
)


# -- parsing -----------------------------------------------------------------


def test_parse_round_trip():
    for text in ("01(10)*", "1(0)*", "(10)*", "100000000(01)*", "0111(10)*"):
        assert str(parse_word(text)) == text


def test_parse_repeat_groups():
    w = parse_word("1(0000)^2 0(10)*")
    assert w == parse_word("1000000000(10)*")
    assert str(w) == "100000000(01)*"
    assert parse_word("(01)^3(10)*") == parse_word("010101(10)*")


def test_parse_plain_group_splices():
    assert parse_word("0(11)0(10)*") == parse_word("0110(10)*")
    # a tail inside a plain group propagates outward
    assert parse_word("0((10)*)") == parse_word("0(10)*")


def test_finite_word_gets_zero_tail():
    w = parse_word("101")
    assert w.period == (0,)
    assert str(w) == "101(0)*"


def test_whitespace_ignored():
    assert parse_word(" 0 1 (1 0)* ") == parse_word("01(10)*")


@pytest.mark.parametrize(
    "text,position",
    [
        ("01(2)*", 3),
        ("01x", 2),
        ("(01", 3),
        ("(01)*1", 5),
        ("((0)*)^2", 6),
        ("01^2", 2),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(text)
    assert exc.value.position == position


def test_parse_error_messages():
    with pytest.raises(WordSyntaxError, match="repeat count"):
        parse_word("(01)^0")
    with pytest.raises(WordSyntaxError, match="tail"):
        parse_word("((0)*)*")
    with pytest.raises(WordSyntaxError, match="empty tail"):
        parse_word("01()*")


def test_empty_word_rejected():
    with pytest.raises(EmptyWordError):
        parse_word("")
    with pytest.raises(EmptyWordError):
        parse_word("   ")


# -- canonicalization --------------------------------------------------------


def test_period_made_primitive():
    assert parse_word("(1010)*") == parse_word("(10)*")
    assert parse_word("(000)*").period == (0,)


def test_preperiod_made_minimal():
    assert parse_word("011(01)*") == parse_word("01(10)*")
    assert str(parse_word("0110(10)*")) == "01(10)*"
    # streams that agree digit-for-digit compare equal
    assert parse_word("0(10)*") == parse_word("01(01)*")
    assert str(parse_word("0(10)*")) == "(01)*"


def test_digit_indexing():
    w = parse_word("01(10)*")
    assert [w.digit(i) for i in range(6)] == [0, 1, 1, 0, 1, 0]
    assert w.digits(4) == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        PeriodicWord((2,), (1,))


def test_structural_operations():
    w = parse_word("01(10)*")
    assert w.shifted() == parse_word("1(10)*")
    assert w.with_prefix((0, 0)) == parse_word("0001(10)*")
    assert w.reflected() == parse_word("10(01)*")
    assert parse_word("(0)*").is_zero()
    assert not w.is_zero()


def test_lexicographic_order():
    assert parse_word("(0)*") < parse_word("(1)*")
    assert parse_word("01(10)*") < parse_word("10(01)*")
    assert parse_word("0(01)*") < parse_word("01(10)*")
    assert not parse_word("(10)*") < parse_word("(10)*")
    assert parse_word("(01)*") <= parse_word("(01)*")


# -- evaluation --------------------------------------------------------------


def test_eval_closed_forms():
    F = q2_field()
    q = F.q
    assert eval_word(parse_word("(0)*"), F).is_zero()
    assert eval_word(parse_word("(1)*"), F) == 1 / (q - 1)
    assert eval_word(parse_word("1(0)*"), F) == 1 / q
    assert eval_word(parse_word("(01)*"), F) == 1 / (q**2 - 1)
    assert eval_word(parse_word("(10)*"), F) == q / (q**2 - 1)


def test_eval_respects_prefix():
    F = qf_field()
    w = parse_word("01(10)*")
    assert eval_word(w, F) == eval_word(w.shifted(), F) / F.q


def _element_eval_word(word, field):
    """Reference evaluator in field elements: Horner in q^-1 per block, then
    pre + q^-n * per / (1 - q^-p)."""
    q_inv = field.q.inverse()

    def finite_value(digits):
        acc = field.zero
        for d in reversed(digits):
            acc = (acc + d) * q_inv
        return acc

    tail = finite_value(word.period) / (field.one - q_inv ** len(word.period))
    return finite_value(word.preperiod) + q_inv ** len(word.preperiod) * tail


# the sqrt2 and cubic bases are no units; eval takes any base, so sqrt 5 too
_EVAL_FIELDS = {
    "q2": ((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))),
    "qf": ((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5))),
    "golden": ((-1, -1, 1), (Fraction(3, 2), Fraction(17, 10))),
    "sqrt2": ((-2, 0, 1), (1, 2)),
    "cubic": ((-2, 0, -1, 1), (Fraction(8, 5), Fraction(9, 5))),
    "sqrt5": ((-5, 0, 1), (2, 3)),
}
_bits = st.integers(0, 1)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_EVAL_FIELDS)),
       st.integers(0, 400).flatmap(lambda n: st.lists(_bits, min_size=n, max_size=n)),
       st.lists(_bits, min_size=1, max_size=8))
def test_eval_matches_element_evaluator(name, preperiod, period):
    F = define_field(*_EVAL_FIELDS[name])
    word = PeriodicWord(preperiod, period)
    got, want = eval_word(word, F), _element_eval_word(word, F)
    assert (got.num, got.den) == (want.num, want.den)


def test_domain_bounds_relations():
    for F in (q2_field(), qf_field(), golden_field()):
        lo, hi, upper = domain_bounds(F)
        q = F.q
        assert lo == 1 / q
        assert hi == 1 / (q * (q - 1))
        assert upper == 1 / (q - 1)
    # the companion base squeezes the region ceiling onto q - 1
    f = qf_field().q
    assert domain_bounds(qf_field())[1] == f - 1
    # the golden base puts the ceiling at 1
    assert domain_bounds(golden_field())[1] == 1


def test_domain_bounds_do_not_keep_a_field_alive():
    F = define_field((-1, -1, 0, 1), (Fraction(13, 10), Fraction(14, 10)))
    lo, hi, upper = domain_bounds(F)
    assert domain_bounds(F) == (lo, hi, upper)
    # the branch memo holds ints and tuples, never an element of F
    assert count_expansions(F.one) == Cardinality.continuum()
    assert F._branches
    ref = weakref.ref(F)
    del F, lo, hi, upper
    gc.collect()
    assert ref() is None


# -- maps and regions ---------------------------------------------------------


def test_maps():
    F = q2_field()
    q = F.q
    x = eval_word(parse_word("01(10)*"), F)
    assert t0(x) == q * x
    assert t1(x) == q * x - 1
    assert apply_digits(x, (1, 0)) == t0(t1(x))
    assert apply_digits(x, ()) == x


def test_region_boundaries():
    F = q2_field()
    lo, hi, upper = domain_bounds(F)
    assert region(F.zero) is Region.LOW
    assert region(lo) is Region.SWITCH
    assert region(hi) is Region.SWITCH
    assert region(upper) is Region.HIGH
    assert region(upper + 1) is Region.OUTSIDE
    assert region(F.zero - 1) is Region.OUTSIDE
    assert str(Region.SWITCH) == "switch"


def test_region_golden_one_is_boundary():
    g = golden_field()
    assert region(g.one) is Region.SWITCH


# -- reflection ----------------------------------------------------------------


def test_reflection_fixed_relations():
    F = q2_field()
    _, _, upper = domain_bounds(F)
    assert reflect_point(F.zero) == upper
    assert reflect_point(upper).is_zero()
    assert reflect_word(parse_word("01(10)*")) == parse_word("100(10)*")


_words = st.builds(
    PeriodicWord,
    st.lists(st.integers(0, 1), max_size=6).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(_words)
def test_reflection_commutes_with_eval(w):
    F = q2_field()
    assert eval_word(reflect_word(w), F) == reflect_point(eval_word(w, F))


@settings(max_examples=60, deadline=None)
@given(_words)
def test_shift_applies_the_digit_map(w):
    F = qf_field()
    x = eval_word(w, F)
    shifted = eval_word(w.shifted(), F)
    assert shifted == (t1(x) if w.digit(0) else t0(x))


@settings(max_examples=60, deadline=None)
@given(_words)
def test_reflection_involution(w):
    assert reflect_word(reflect_word(w)) == w


@settings(max_examples=80, deadline=None)
@given(_words, _words)
def test_lex_order_decided_by_first_differing_digit(a, b):
    if a == b:
        assert not (a < b) and not (b < a)
        return
    # two distinct digit streams must differ somewhere in a window covering
    # both preperiods and a full joint period
    horizon = max(len(a.preperiod), len(b.preperiod)) + len(a.period) * len(b.period) + 1
    diffs = [n for n in range(horizon) if a.digit(n) != b.digit(n)]
    assert diffs, "distinct canonical words must differ as digit streams"
    first = diffs[0]
    assert (a < b) == (a.digit(first) < b.digit(first))
    assert (a < b) != (b < a)
