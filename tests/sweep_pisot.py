"""The recount sweep in five Pisot bases of degree 5 and 6, each of which
takes seconds: ``count_expansions`` against the remainder-graph recount on
every canonical word with preperiod <= 6 and period <= 4, as
``test_branching.test_counts_match_the_remainder_recount`` runs it in
eleven other bases; and ``region`` against the comparison reference on the
same words' values and those values plus one, through the compiled
thresholds at degrees 5 and 6, which tier-1 never builds.  Tier-1 does not
collect this file (its name does not start with ``test_``); CI runs it by
name:

    PYTHONPATH=src python -m pytest -q tests/sweep_pisot.py
"""

from fractions import Fraction

import pytest

from betaforge import count_expansions, define_field, eval_word, region
from conftest import recount
from test_branching import _MEMO_WORDS, _ref_region

# each a polynomial (ascending coefficients) and an interval isolating its
# root in (1, 2)
_SWEEP_FIELDS = {
    # x^5 - x^3 - x^2 - x - 1, ~1.534
    "x5-x3-x2-x-1": ((-1, -1, -1, -1, 0, 1), (Fraction(3, 2), Fraction(31, 20))),
    # x^5 - x^4 - x^3 + x^2 - 1, ~1.443
    "x5-x4-x3+x2-1": ((-1, 0, 1, -1, -1, 1), (Fraction(143, 100), Fraction(29, 20))),
    # x^6 - x^5 - x^4 - x^2 + 1, ~1.714
    "x6-x5-x4-x2+1": ((1, 0, -1, 0, -1, -1, 1), (Fraction(214, 125), Fraction(429, 250))),
    # x^6 - x^5 - x^4 - x - 1, ~1.744
    "x6-x5-x4-x-1": ((-1, -1, 0, 0, -1, -1, 1), (Fraction(87, 50), Fraction(7, 4))),
    # x^6 - x^5 - x^4 + x^2 - 1, ~1.502
    "x6-x5-x4+x2-1": ((-1, 0, 1, 0, -1, -1, 1), (Fraction(149, 100), Fraction(151, 100))),
}


@pytest.mark.parametrize("name", list(_SWEEP_FIELDS))
def test_counts_match_the_remainder_recount_in_degrees_5_and_6(name):
    F = define_field(*_SWEEP_FIELDS[name])
    assert len(_MEMO_WORDS) == 1408
    for word in _MEMO_WORDS:
        x = eval_word(word, F)
        assert count_expansions(x) == recount(x), str(word)


@pytest.mark.parametrize("name", list(_SWEEP_FIELDS))
def test_region_matches_the_comparison_reference_in_degrees_5_and_6(name):
    F = define_field(*_SWEEP_FIELDS[name])
    for word in _MEMO_WORDS:
        x = eval_word(word, F)
        for v in (x, x + 1):
            assert region(v) is _ref_region(v), str(word)
