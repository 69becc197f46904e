"""End-to-end tests of the command-line interface, run in-process.

Exit code contract: 0 success, 1 verification failure, 2 usage error,
3 a resource limit cut the computation short.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import betaforge
from betaforge import (
    EmptyWordError,
    WordSyntaxError,
    define_field,
    deterministic_run,
    eval_word,
    parse_word,
    q2_field,
    qf_field,
    region,
    to_decimal,
)
from betaforge.cli import (MAX_DIGITS, _parse_args, _parse_field, _scan, _Unread, build_parser,
                           main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_zero(capsys):
    code, out, err = run(capsys, "eval", "(0)*")
    assert code == 0
    assert out == "0 / 0.000000\n"
    assert err == ""


def test_eval_plus_one(capsys):
    code, out, _ = run(capsys, "eval", "--plus-one", "(0)*")
    assert code == 0
    assert out == "1 / 1.000000\n"


def test_eval_digits_flag(capsys):
    code, out, _ = run(capsys, "eval", "--digits", "2", "(0)*")
    assert code == 0
    assert out == "0 / 0.00\n"


def test_eval_json_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "--format", "json", "01(10)*")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "01(10)*"
    assert payload["plus_one"] is False
    assert payload["digits"] == 6

    rec = payload["field"]
    field = define_field(
        tuple(rec["min_poly"]),
        (Fraction(rec["interval"][0]), Fraction(rec["interval"][1])),
    )
    x = field.element(tuple(Fraction(c) for c in payload["coeffs"]))
    expected = eval_word(parse_word("01(10)*"), q2_field())
    assert x.coeffs == expected.coeffs
    assert payload["decimal"] == to_decimal(expected, 6)


# ---------------------------------------------------------------------------
# region


def test_region_text(capsys):
    code, out, _ = run(capsys, "region", "01(10)*")
    assert (code, out) == (0, "switch\n")
    code, out, _ = run(capsys, "region", "--plus-one", "(0)*")
    assert (code, out) == (0, "high\n")


def test_region_json(capsys):
    code, out, _ = run(capsys, "region", "--format", "json", "(0)*")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "word": "(0)*",
        "plus_one": False,
        "decimal": "0.000000",
        "region": "low",
    }


def test_comparisons_leave_the_field_interval(capsys):
    # 1 0^200 1(0)* is within 2^-128 of 1/q, so its region is decided past
    # the filter's first precision, as are the late steps of a forced run
    # 400 steps deep; neither narrows the shared q2 interval, so the field
    # record printed next is that of a fresh field
    fresh = define_field((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))).interval()
    code, out, _ = run(capsys, "region", "--field", "q2", "1" + "0" * 200 + "1(0)*")
    assert (code, out) == (0, "switch\n")
    F = q2_field()
    assert F.interval() == fresh
    deterministic_run(eval_word(parse_word("0" * 400 + "1(0)*"), F), max_steps=1000)
    assert F.interval() == fresh
    code, out, _ = run(capsys, "eval", "--field", "q2", "--format", "json", "1(0)*")
    assert code == 0
    interval = json.loads(out)["field"]["interval"]
    assert interval == [str(fresh[0]), str(fresh[1])] == ["2737/1600", "1369/800"]


# ---------------------------------------------------------------------------
# orbit


def test_orbit_text_reaches_switch(capsys):
    code, out, _ = run(capsys, "orbit", "--plus-one", "00(01)*")
    assert code == 0
    parts = out.split()
    assert parts[-1] == "[SWITCH]"
    assert parts[1] == "→1" and parts[3] == "→1"
    # decimals are checked against exact values, not a verbatim rendering
    assert abs(float(parts[0]) - 1.1774010) < 2e-6
    assert abs(float(parts[2]) - 1.0141141) < 2e-6
    assert abs(float(parts[4]) - 0.7347883) < 2e-6
    assert len(parts) == 6


def test_orbit_csv(capsys):
    code, out, _ = run(capsys, "orbit", "--plus-one", "--format", "csv", "00(01)*")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,digit,decimal,region"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[3] == "high"
    last = lines[-1].split(",")
    assert last[0] == "2" and last[1] == "" and last[3] == "switch"


def test_orbit_unique_tail(capsys):
    code, out, _ = run(capsys, "orbit", "(10)*")
    assert code == 0
    assert out.strip().endswith("[TAIL (10)*]")


def test_orbit_json_end_record(capsys):
    code, out, _ = run(capsys, "orbit", "--format", "json", "(10)*")
    assert code == 0
    payload = json.loads(out)
    assert payload["end"] == {"kind": "unique_tail", "tail": "(10)*"}
    assert payload["steps"][0]["step"] == 0
    assert payload["steps"][-1]["digit"] is None
    # a switch end carries the decimal of the value the run stopped on
    code, out, _ = run(capsys, "orbit", "--format", "json", "--digits", "20", "--plus-one",
                       "00(01)*")
    end = deterministic_run(eval_word(parse_word("00(01)*"), q2_field()) + 1).end
    assert (code, json.loads(out)["end"]) == (0, {"kind": "switch",
                                                  "decimal": to_decimal(end.value, 20)})


def test_orbit_step_limit_exit_code(capsys):
    code, out, _ = run(capsys, "orbit", "--plus-one", "--max-steps", "2", "00(01)*")
    assert code == 3
    assert out.strip().endswith("[STEP LIMIT]")


@pytest.mark.parametrize("argv", [
    ("--plus-one", "00(01)*"), ("(10)*",), ("--plus-one", "000(01)*"),
    ("--plus-one", "--max-steps", "2", "00(01)*"), ("--field", "qf", "0001(10)*"),
])
def test_orbit_rows_name_each_value_region(capsys, argv):
    _, out, _ = run(capsys, "orbit", "--format", "json", "--digits", "30", *argv)
    field = qf_field() if "qf" in argv else q2_field()
    x = eval_word(parse_word(argv[-1]), field) + (1 if "--plus-one" in argv else 0)
    steps = json.loads(out)["steps"]
    for step in steps:
        assert step["region"] == str(region(x))
        assert step["decimal"] == to_decimal(x, 30)
        if step["digit"] is not None:
            x = x.times_q_minus(step["digit"])


def test_orbit_outside_domain_is_usage_error(capsys):
    code, _, err = run(capsys, "orbit", "--plus-one", "(1)*")
    assert code == 2
    assert err.startswith("betaforge: error:")


# ---------------------------------------------------------------------------
# count


def test_count_finite_three(capsys):
    code, out, _ = run(capsys, "count", "--field", "qf", "1(0000)^2 0(10)*")
    assert (code, out) == (0, "Finite(3)\n")


def test_count_json(capsys):
    code, out, _ = run(
        capsys, "count", "--format", "json", "--field", "qf", "1(0000)^2 0(10)*"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == {"kind": "finite", "count": 3}
    assert payload["display"] == "Finite(3)"


def test_count_lower_bound_exit_code(capsys):
    code, out, _ = run(
        capsys, "count", "1(0)*",
        "--max-nodes", "16", "--max-steps", "250",
    )
    assert code == 3
    assert out.startswith("LowerBound(")


@pytest.mark.parametrize("argv, limit", [
    (("--max-nodes", "16", "--max-steps", "250"), "max_nodes"),
    (("--max-steps", "3"), "max_steps"),
])
def test_count_names_the_limit(capsys, argv, limit):
    code, out, err = run(capsys, "count", "1(0)*", *argv)
    assert code == 3 and out.startswith("LowerBound(")
    assert err == f"# incomplete: the {limit} limit was reached\n"
    code, out, err = run(capsys, "count", "--format", "json", "1(0)*", *argv)
    assert code == 3 and err == ""
    assert json.loads(out)["limit"] == limit


def test_count_json_limit_is_null_when_exact(capsys):
    code, out, err = run(capsys, "count", "--format", "json", "--field", "qf", "1(0000)^2 0(10)*")
    assert (code, err) == (0, "")
    assert json.loads(out)["limit"] is None


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_complete(capsys):
    code, out, err = run(capsys, "enumerate", "--field", "qf", "1(0000)^1 0(10)*")
    assert code == 0
    words = out.strip().splitlines()
    assert len(words) == 2
    assert words == sorted(words)
    assert err == ""
    x = eval_word(parse_word("1(0000)^1 0(10)*"), qf_field())
    assert all(eval_word(parse_word(w), qf_field()) == x for w in words)


def test_enumerate_incomplete(capsys):
    code, out, err = run(
        capsys, "enumerate", "--field", "qf", "1(0)*",
        "--max-count", "4", "--max-steps", "250", "--max-nodes", "64",
    )
    assert code == 3
    assert out.strip().splitlines() == [
        "010(1)*",
        "0110010(1)*",
        "01101(0)*",
        "1(0)*",
    ]
    assert err == "# incomplete: the max_count limit was reached\n"


@pytest.mark.parametrize("argv, limit", [
    (("--max-count", "4", "--max-steps", "250", "--max-nodes", "64"), "max_count"),
    (("--max-depth", "3"), "max_depth"),
    (("--max-nodes", "1"), "max_nodes"),
    (("--max-steps", "1"), "max_steps"),
])
def test_enumerate_json_names_the_limit(capsys, argv, limit):
    code, out, err = run(capsys, "enumerate", "--format", "json", "--field", "qf",
                         "1(0)*", *argv)
    assert (code, err) == (3, "")
    payload = json.loads(out)
    assert payload["complete"] is False
    assert payload["limit"] == limit


@pytest.mark.parametrize("word, complete", [("1(0000)^1 0(10)*", True), ("(010)*", False)])
def test_enumerate_json_limit_is_null_when_no_limit_was_hit(capsys, word, complete):
    code, out, _ = run(capsys, "enumerate", "--format", "json", "--field", "qf", word)
    assert code == (0 if complete else 3)
    payload = json.loads(out)
    assert (payload["complete"], payload["limit"]) == (complete, None)


def test_enumerate_point_with_no_reachable_tail(capsys):
    # every branch of (010)* in qf avoids unique tails: nothing to list, and
    # the listing is reported incomplete at once under the default limits
    code, out, err = run(capsys, "enumerate", "--field", "qf", "(010)*")
    assert (code, out) == (3, "")
    assert err == "# incomplete: branches with no reachable unique tail were skipped\n"


# ---------------------------------------------------------------------------
# count and enumerate, pinned for three kinds of q2 point
#
# "0001(0)*" forces 000 into 1(0)*, so it reaches the same first switch
# point: its answers come from the field's answer memo with that prefix.
# The alias q2 is the process-wide field; the poly: spec builds a cold one
# on every call.  Both must print the same.

_Q2_SPECS = ("q2", "poly:-1,-1,-2,0,1@17/10,43/25")
_ACCEPTANCE = ("--max-steps", "250", "--max-nodes", "64")
_PINNED = [
    # truncated at the acceptance caps
    ("1(0)*", _ACCEPTANCE, 3,
     ("LowerBound(111)", "max_nodes", ["1(0)*"], False)),
    ("0001(0)*", _ACCEPTANCE, 3,
     ("LowerBound(111)", "max_nodes", ["0001(0)*"], False)),
    # the root run hits the step limit
    ("0001(0)*", ("--max-steps", "1"), 3,
     ("LowerBound(1)", "max_steps", [], False)),
    # exactly two expansions
    ("01(10)*", _ACCEPTANCE, 0,
     ("Finite(2)", None, ["01(10)*", "1000(01)*"], True)),
]


@pytest.mark.parametrize("spec", _Q2_SPECS * 2)
def test_count_and_enumerate_pinned_on_q2(capsys, spec):
    for word, caps, code, (display, limit, words, complete) in _PINNED:
        incomplete = f"# incomplete: the {limit} limit was reached\n" if limit else ""
        kind, _, count = display[:-1].partition("(")
        cardinality = {"kind": "finite" if kind == "Finite" else "lower_bound",
                       "count": int(count)}
        argv = ("--field", spec, word, *caps)

        assert run(capsys, "count", *argv) == (code, display + "\n", incomplete)
        assert run(capsys, "count", "--format", "json", *argv) == (code, json.dumps(
            {"word": word, "plus_one": False, "cardinality": cardinality,
             "display": display, "limit": limit}) + "\n", "")

        listing = "".join(w + "\n" for w in words)
        assert run(capsys, "enumerate", *argv) == (code, listing, incomplete)
        assert run(capsys, "enumerate", "--format", "json", *argv) == (code, json.dumps(
            {"word": word, "plus_one": False, "expansions": words,
             "complete": complete, "limit": limit}) + "\n", "")


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "constants")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS")
    assert lines[-1] == "1 passed, 0 failed, 0 skipped"


def test_verify_all_runs_every_check(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 12
    assert lines[-1] == "12 passed, 0 failed, 0 skipped"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "constants", "T1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"] == "quick"
    assert payload["passed"] == 2 and payload["failed"] == 0
    assert [rec["id"] for rec in payload["results"]] == ["T1", "constants"]


def test_verify_runs_a_check_named_twice_once(capsys):
    code, out, _ = run(capsys, "verify", "T1", "T1")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["PASS", "T1"]]
    assert lines[-1] == "1 passed, 0 failed, 0 skipped"


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "betaforge: error:" in err


def test_verify_unknown_profile(capsys):
    code, _, err = run(capsys, "verify", "--profile", "slow", "constants")
    assert code == 2  # rejected by the argument parser
    assert "usage" in err


# ---------------------------------------------------------------------------
# usage errors


def test_word_syntax_error(capsys):
    code, _, err = run(capsys, "eval", "01x")
    assert code == 2
    assert err.startswith("betaforge: error:")


@pytest.mark.parametrize("text", ["1((0)^1000)^2000(01)*", "(0)^" + "9" * 5000],
                         ids=["nested-repeats", "count-longer-than-int-converts"])
def test_word_expanding_past_the_digit_cap_is_usage_error(capsys, text):
    code, out, err = run(capsys, "count", "--field", "qf", text)
    assert (code, out) == (2, "")
    assert err.startswith("betaforge: error:") and "digits" in err


def test_a_group_nested_5000_deep_parses_to_the_word_inside_it(capsys, wall_time_limit):
    wall_time_limit(10)
    text = "(" * 5000 + "01(10)*" + ")" * 5000
    assert parse_word(text) == parse_word("01(10)*")
    code, out, err = run(capsys, "eval", text)
    assert (code, out, err) == run(capsys, "eval", "01(10)*") and code == 0


def test_5000_unclosed_groups_are_a_syntax_error(capsys, wall_time_limit):
    wall_time_limit(10)
    text = "(" * 5000
    with pytest.raises(WordSyntaxError, match=r"^unclosed '\('") as exc:
        parse_word(text)
    assert exc.value.position == len(text)
    assert run(capsys, "eval", text) == (
        2, "", f"betaforge: error: unclosed '(' (at position {len(text)})\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter converts an int of any length to str")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_of_a_value_past_the_int_to_str_limit_is_refused(capsys, wall_time_limit, fmt):
    # 65,000 ones: on q2 the value's coefficients run to about 11,800
    # digits, past Python's default limit of 4,300
    wall_time_limit(10)
    assert run(capsys, "eval", "--format", fmt, "((1)^250)^260") == (
        2, "", "betaforge: error: the word's value has a coefficient past Python's "
               "int-to-str limit\n")


# word text over the grammar's characters: digits and spaces, groups nested
# in each other, repeat counts of at most three digits (leading zeros, 0 and
# none among them) and a tail, all inside a run of up to 3,000 '(' closed
# in full, with a scrap of any of those characters put in anywhere
_REPEAT_COUNTS = st.text("0123456789", max_size=3).map("^".__add__)
_BLOCKS = st.recursive(
    st.text("01 ", min_size=1, max_size=6),
    lambda inner: st.builds(lambda parts, count: "(" + "".join(parts) + ")" + count,
                            st.lists(inner, min_size=1, max_size=3),
                            st.just("") | _REPEAT_COUNTS),
    max_leaves=8)


@st.composite
def _word_texts(draw):
    depth = draw(st.integers(0, 3000))
    body = "".join(draw(st.lists(_BLOCKS, max_size=3)))
    if draw(st.booleans()):
        body += "(" + draw(st.text("01", max_size=4)) + ")*"
    text = "(" * depth + body + ")" * depth
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.text("0123456789()^* ", max_size=2)) + text[at:]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_word_texts())
def test_no_word_text_crashes_the_cli(wall_time_limit, text):
    wall_time_limit(10)
    try:
        word = parse_word(text)
    except (WordSyntaxError, EmptyWordError):
        pass
    else:
        # A long word makes count slow, not wrong: a word of 13,000 digits
        # took 4 s, since sign() halves the field's bracket one bit at a
        # time up to the word's precision (ROADMAP items 11 and 12).
        assume(len(word.preperiod) + len(word.period) <= 4096)
    for argv in (["eval", text], ["count", "--max-steps", "64", "--max-nodes", "16", text]):
        assert main(argv) in (0, 2, 3), argv


@pytest.mark.parametrize(
    "spec", ["nope", "poly:1,2", "poly:0,1@1,2,3", "poly:a,1@1,2", "poly:-1,-1,-2,0,1@x,2"]
)
def test_bad_field_specs(capsys, spec):
    code, _, err = run(capsys, "eval", "--field", spec, "(0)*")
    assert code == 2
    assert "betaforge: error:" in err


_DIGITS_101 = "1" + "0" * 100


@pytest.mark.parametrize("spec, reason", [
    ("poly:-1,-1,1@1.5,1e200000", "exponent above 100"),
    ("poly:-1,-1,1@1e-999999999,1.7", "exponent above 100"),
    ("poly:-1,-1,1@1.5,1E+101", "exponent above 100"),
    # '_' separators count toward the cap, as Fraction reads them
    ("poly:-1,-1,1@1.5,1e2_000_000", "exponent above 100"),
    ("poly:-1,-1,1@1e-1_000_000,1.7", "exponent above 100"),
    (f"poly:-1,-1,1@1.5,{_DIGITS_101}", "more than 100 digits"),
    (f"poly:-1,-1,1@1/{_DIGITS_101},2", "more than 100 digits"),
    (f"poly:-1,-{_DIGITS_101},1@1.5,2", "more than 100 digits"),
    ("poly:-1," + "0," * 64 + "1@1,2", "degree above 64"),
])
def test_field_spec_past_a_cap_is_usage_error(capsys, wall_time_limit, spec, reason):
    # refused on its text, before any number in it is built
    wall_time_limit(5)
    code, out, err = run(capsys, "eval", "--field", spec, "1(0)*")
    assert (code, out) == (2, "")
    assert err.startswith("betaforge: error:") and reason in err


def test_field_spec_at_the_caps_parses(capsys, wall_time_limit):
    wall_time_limit(10)
    hundred = "1" + "0" * 99
    code, out, _ = run(capsys, "eval", "--field", f"poly:-1,-1,1@15e-1,{hundred}", "1(0)*")
    assert (code, out) == (0, "-1 + q / 0.618034\n")
    assert run(capsys, "eval", "--field", "poly:-1,-1,1@3/2,1e100", "1(0)*")[:2] == (0, out)
    assert _parse_field("poly:-1,-1," + "0," * 62 + "1@1,2").degree == 64


_DEGREE_64_SPEC = "poly:-1,-1," + "0," * 62 + "1@1,2"  # x^64 - x - 1


def test_degree_64_spec_answers_fast(capsys, wall_time_limit):
    # 1(0)* is worth 1/q = q^63 - 1: one inverse of a degree-64 element
    wall_time_limit(2)
    assert run(capsys, "region", "--field", _DEGREE_64_SPEC, "1(0)*")[0] == 0
    assert run(capsys, "eval", "--field", _DEGREE_64_SPEC, "1(0)*")[:2] == (
        0, "-1 + q^63 / 0.989143\n")


def test_degree_64_spec_refused_by_refinement_fast(capsys, wall_time_limit):
    # x^64 - 10^98 x^2 - 1 has one root in [1, 2e100], near 38; 256 halvings
    # of a 2e100-wide interval leave the derivative's enclosure around 0
    wall_time_limit(2)
    spec = "poly:-1,0,-1" + "0" * 98 + "," + "0," * 61 + "1@1,2e100"
    code, out, err = run(capsys, "eval", "--field", spec, "1(0)*")
    assert (code, out) == (2, "")
    assert "could not certify a simple root by refinement" in err


def test_interval_holding_three_roots_is_usage_error(capsys):
    # (x-100)^3 - 3(x-100) + 1: three roots in [0, 1000], one grid sign change
    code, out, err = run(capsys, "eval", "--field", "poly:-999699,29997,-300,1@0,1000", "1")
    assert (code, out) == (2, "")
    assert "3 real roots" in err


def test_reducible_polynomial_found_by_a_comparison_is_usage_error(capsys, wall_time_limit):
    # (x^2 - x - 1)(x^2 + 1) around the golden ratio: 11(0)* is worth 1 there,
    # which is also 1/(q(q-1)), but the two are distinct lattice elements
    wall_time_limit(10)
    code, out, err = run(capsys, "region", "--field", "poly:-1,-1,0,-1,1@3/2,17/10", "11(0)*")
    assert (code, out) == (2, "")
    assert err.startswith("betaforge: error:") and "vanishing at q" in err


def test_custom_poly_field(capsys):
    spec = "poly:-1,-1,-2,0,1@17/10,43/25"
    code, out, _ = run(capsys, "eval", "--field", spec, "--plus-one", "(0)*")
    assert (code, out) == (0, "1 / 1.000000\n")


# q ~ 0.618 (below 1) and q = sqrt 5 (above 2): no expansion dynamics
_BASES_OUTSIDE_1_2 = ["poly:-1,1,1@1/2,7/10", "poly:-5,0,1@2,3"]


@pytest.mark.parametrize("spec", _BASES_OUTSIDE_1_2)
@pytest.mark.parametrize("command", ["region", "orbit", "count", "enumerate"])
def test_base_outside_1_2_is_usage_error(capsys, spec, command):
    # the malformed word '2' shows the order of the refusals: the base is
    # checked before the word is read, except under eval, which takes any base
    for word in ("1(0)*", "2"):
        code, out, err = run(capsys, command, "--field", spec, word)
        assert code == 2
        assert out == ""
        assert err.startswith("betaforge: error:") and "outside (1, 2)" in err


# 16 negative 100-digit coefficients over [1, 1e100]: one positive root, near
# 4.5e99, whose certified cell lies far above 2
_RNG = random.Random(1)
_FAR_ABOVE_2 = ("poly:" + ",".join(str(-_RNG.randrange(10**99, 10**100)) for _ in range(16))
                + ",1@1,1e100")


@pytest.mark.parametrize("command", ["region", "orbit", "count", "enumerate"])
def test_base_far_outside_1_2_is_refused_at_once(capsys, wall_time_limit, command):
    # the certified cell decides: q is neither compared with 2 exactly nor
    # printed as a decimal, each of which refines q for seconds
    wall_time_limit(1)
    code, out, err = run(capsys, command, "--field", _FAR_ABOVE_2, "1(0)*")
    assert (code, out) == (2, "")
    assert err.startswith("betaforge: error:") and "outside (1, 2)" in err


def test_base_outside_1_2_is_named_by_its_isolating_interval(capsys):
    err = run(capsys, "region", "--field", "poly:-5,0,1@2,3", "1(0)*")[2]
    assert "has base q in [71/32, 9/4], outside (1, 2)" in err


@pytest.mark.parametrize("spec, expected", zip(_BASES_OUTSIDE_1_2, ["1 + q / 1.618034\n",
                                                                     "1/5q / 0.447214\n"]))
def test_eval_accepts_any_base(capsys, spec, expected):
    # 1/q: q + 1 when q^2 = 1 - q, and q/5 when q^2 = 5
    assert run(capsys, "eval", "--field", spec, "1(0)*") == (0, expected, "")
    # so eval reports a malformed word, where the other commands report the base
    assert run(capsys, "eval", "--field", spec, "2") == (
        2, "", "betaforge: error: unexpected character '2' (at position 0)\n")


def test_csv_rejected_outside_orbit(capsys):
    code, _, err = run(capsys, "count", "--format", "csv", "(0)*")
    assert code == 2
    assert "csv" in err


_WORD_COMMANDS = ("eval", "region", "orbit", "count", "enumerate")
_LIMITS = ("--max-steps", "--max-nodes", "--max-depth", "--max-count")
# the bounds each word command reads
_READS = {"eval": ("--digits",), "region": ("--digits",), "orbit": ("--digits", "--max-steps"),
          "count": ("--max-steps", "--max-nodes"), "enumerate": _LIMITS}


@pytest.mark.parametrize("value", ["0", "-1"])  # "0" is read by the scan, "-1" by argparse
@pytest.mark.parametrize("command", _WORD_COMMANDS)
@pytest.mark.parametrize("flag", _LIMITS)
def test_count_limits_must_be_positive(capsys, flag, command, value):
    code, out, err = run(capsys, command, flag, value, "1(0)*")
    assert (code, out) == (2, "")
    if flag in _READS[command]:
        assert err == f"betaforge: error: {flag} must be positive\n"
    else:
        # a command refuses a bound it does not read, whatever its value
        # (test_a_word_command_refuses_an_option_it_does_not_read)
        assert err.startswith("usage: betaforge") and f"unrecognized arguments: {flag}" in err


# each option a word command does not read, with a value the command that
# reads it takes
_UNREAD = [
    *((command, flag, "5") for command in _WORD_COMMANDS for flag in _LIMITS
      if flag not in _READS[command]),
    *((command, "--digits", "9") for command in ("count", "enumerate")),
    *((command, "--format", "csv") for command in ("eval", "region", "count", "enumerate")),
]


@pytest.mark.parametrize("form", ["apart", "joined"])
@pytest.mark.parametrize("command, option, value", _UNREAD)
def test_a_word_command_refuses_an_option_it_does_not_read(capsys, monkeypatch, command, option,
                                                          value, form):
    # the scan turns down an option the command does not hold, and a
    # joined '--option=value' for its shape: either way the top-level
    # parser reads the call, once, and refuses it in its own words, naming
    # the option and its value, never the word
    argv = [command, *([option, value] if form == "apart" else [f"{option}={value}"]), "1(0)*"]
    calls = _spy_on_the_top_level_parser(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, calls) == (2, "", [argv])
    assert err.startswith("usage: betaforge")
    assert (f"argument --format: invalid choice: {value!r}" if option == "--format"
            else f"unrecognized arguments: {option} {value}") in err
    assert "1(0)*" not in err
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("form", ["apart", "joined"])
@pytest.mark.parametrize("command, prefix, option, value, word", [
    ("orbit", "--max", "--max-steps", "3", "1(0)*"),
    ("orbit", "--m", "--max-steps", "3", "1(0)*"),
    ("count", "--max-n", "--max-nodes", "5", "(0)*"),
    ("enumerate", "--max-c", "--max-count", "2", "1(0000)^2 0(10)*"),
    ("region", "--d", "--digits", "9", "1(0)*"),
])
def test_a_prefix_unique_among_the_options_a_command_reads_names_that_option(
        capsys, command, prefix, option, value, word, form):
    # the hidden unread bounds take no part in an abbreviation that names
    # one option the command reads
    argv = [command, *([prefix, value] if form == "apart" else [f"{prefix}={value}"]), word]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, command, option, value, word)
    assert code in (0, 3) and out


def test_orbit_max_3_reads_max_steps(capsys):
    assert run(capsys, "orbit", "--max", "3", "1(0)*") == (0, "0.584575 [SWITCH]\n", "")


@pytest.mark.parametrize("argv, message", [
    (["eval", "--max-steps", "3", "1(0)*"], "unrecognized arguments: --max-steps 3"),
    (["orbit", "--max-n", "4", "1(0)*"], "unrecognized arguments: --max-nodes 4"),
    (["orbit", "--max-n=4", "1(0)*"], "unrecognized arguments: --max-nodes 4"),
    (["eval", "--max", "3", "1(0)*"],
     "ambiguous option: --max could match --max-steps, --max-nodes, --max-depth, --max-count"),
    (["count", "--max", "3", "(0)*"],
     "ambiguous option: --max could match --max-steps, --max-nodes"),
])
def test_a_prefix_of_no_read_option_or_of_several_stays_refused(capsys, argv, message):
    # a prefix that starts no option the command reads names the unread
    # bound it starts, and is refused naming it; one that starts several
    # read options is ambiguous among those
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: betaforge") and message in err


def test_digits_must_be_positive(capsys):
    code, _, err = run(capsys, "eval", "--digits", "0", "(0)*")
    assert code == 2
    assert "--digits" in err


@pytest.mark.parametrize("command", ["eval", "region", "orbit"])
def test_digits_beyond_the_bound_are_refused(capsys, command):
    # 5000 digits would pass Python's int-to-str limit inside to_decimal
    code, out, err = run(capsys, command, "--digits", "5000", "1(0)*")
    assert (code, out) == (2, "")
    assert err.startswith("betaforge: error: --digits")
    code, out, _ = run(capsys, command, "--digits", str(MAX_DIGITS), "--format", "json", "1(0)*")
    assert code == 0 and len(out) > MAX_DIGITS


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "eval" in out and "verify" in out


# ---------------------------------------------------------------------------
# the environment changes no answer: a word command's limits come from its
# arguments alone


def _same_with_env(capsys, monkeypatch, raw, *argv):
    """The exit code and stdout of a call, asserted equal with and without
    BETAFORGE_LIMITS set to ``raw``."""
    monkeypatch.delenv("BETAFORGE_LIMITS", raising=False)
    code, out, _ = run(capsys, *argv)
    monkeypatch.setenv("BETAFORGE_LIMITS", raw)
    assert run(capsys, *argv)[:2] == (code, out)
    return code, out


def test_env_limits_apply(capsys, monkeypatch):
    code, out = _same_with_env(capsys, monkeypatch, "max_steps=2",
                               "orbit", "--plus-one", "00(01)*")
    assert (code, out) == (0, "1.177401 →1 1.014114 →1 0.734788 [SWITCH]\n")


def test_flags_override_env_limits(capsys, monkeypatch):
    code, out = _same_with_env(capsys, monkeypatch, "max_steps=2",
                               "orbit", "--plus-one", "--max-steps", "10", "00(01)*")
    assert (code, out) == (0, "1.177401 →1 1.014114 →1 0.734788 [SWITCH]\n")


@pytest.mark.parametrize("raw", ["max_steps=two", "bogus=3", "max_steps", "max_nodes=0",
                                 "max_steps=²"])
def test_malformed_env_limits(capsys, monkeypatch, raw):
    for command in ("eval", "region", "orbit"):
        code, _ = _same_with_env(capsys, monkeypatch, raw, command, "--plus-one", "00(01)*")
        assert code == 0, command


def test_env_limits_ignored_for_unlimited_commands(capsys, monkeypatch):
    assert _same_with_env(capsys, monkeypatch, "max_steps=2", "eval", "(0)*") == (
        0, "0 / 0.000000\n")


# ---------------------------------------------------------------------------
# the shared parser


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "eval", "(0)*") == (0, "0 / 0.000000\n", "")
    # a usage error after a successful call is still a usage error
    code, out, err = run(capsys, "eval", "--digits", "x", "(0)*")
    assert (code, out) == (2, "")
    assert "usage" in err
    assert run(capsys, "count", "--field", "qf", "1(0000)^2 0(10)*") == (0, "Finite(3)\n", "")


SHARED_PARSER_ARGVS = [
    ["eval", "--plus-one", "--field", "qf", "--digits", "9", "1(0)*"],
    ["orbit", "--format", "csv", "--max-steps", "5", "(01)*"],
    ["enumerate", "--max-count", "3", "--max-depth", "7", "1(0)*"],
    ["verify", "constants", "T1", "--profile", "full", "--format", "json"],
]
# one valid call of each command
COMMAND_ARGVS = [
    ["eval", "--format", "json", "(01)*"],
    ["region", "--field", "golden", "--plus-one", "0(1)*"],
    ["orbit", "--plus-one", "--digits", "3", "00(01)*"],
    ["count", "--field", "qf", "--max-nodes", "64", "1(0000)^2 0(10)*"],
    ["enumerate", "--field", "qf", "1(0000)^1 0(10)*"],
    ["verify", "constants"],
]


@pytest.mark.parametrize("argv", SHARED_PARSER_ARGVS)
def test_shared_parser_matches_a_fresh_one(argv):
    shared = build_parser()
    shared.parse_args(["count", "--field", "golden", "--max-nodes", "2", "1"])
    fresh = build_parser.__wrapped__()
    assert vars(shared.parse_args(argv)) == vars(fresh.parse_args(argv))
    assert shared.format_help() == fresh.format_help()


def test_each_command_holds_the_options_its_help_shows():
    # option strings its help shows and positional names, in order, the
    # formats each command offers, and the bounds it holds hidden to refuse
    # them (``_Unread``), without argparse's wording of the help text, which
    # differs across Python versions
    (commands,) = (action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert {name: ([option for action in command._actions if action.help is not argparse.SUPPRESS
                    for option in action.option_strings],
                   [action.dest for action in command._actions if not action.option_strings],
                   *(action.choices for action in command._actions
                     if action.option_strings == ["--format"]),
                   [option for action in command._actions if action.help is argparse.SUPPRESS
                    for option in action.option_strings])
            for name, command in commands.items()} == {
        "eval": (["-h", "--help", "--field", "--format", "--digits", "--plus-one"], ["word"],
                 ("text", "json"), list(_LIMITS)),
        "region": (["-h", "--help", "--field", "--format", "--digits", "--plus-one"], ["word"],
                   ("text", "json"), list(_LIMITS)),
        "orbit": (["-h", "--help", "--field", "--format", "--digits", "--max-steps", "--plus-one"],
                  ["word"], ("text", "json", "csv"),
                  ["--max-nodes", "--max-depth", "--max-count"]),
        "count": (["-h", "--help", "--field", "--format", "--max-steps", "--max-nodes",
                   "--plus-one"], ["word"], ("text", "json"),
                  ["--digits", "--max-depth", "--max-count"]),
        "enumerate": (["-h", "--help", "--field", "--format", "--max-steps", "--max-nodes",
                       "--max-depth", "--max-count", "--plus-one"], ["word"], ("text", "json"),
                      ["--digits"]),
        "verify": (["-h", "--help", "--format", "--profile"], ["checks"], ("text", "json"), []),
    }
    assert all(isinstance(action, _Unread) for command in commands.values()
               for action in command._actions if action.help is argparse.SUPPRESS)
    assert list(commands) == ["eval", "region", "orbit", "count", "enumerate", "verify"]


@pytest.mark.parametrize("option, value, error", [
    ("--field", "qf", "unrecognized arguments: --field"),
    ("--digits", "9", "unrecognized arguments: --digits"),
    ("--max-steps", "5", "unrecognized arguments: --max-steps"),
    ("--format", "csv", "argument --format: invalid choice: 'csv'"),
])
def test_verify_refuses_what_only_a_word_command_reads(capsys, option, value, error):
    code, out, err = run(capsys, "verify", option, value, "constants")
    assert (code, out) == (2, "")
    assert err.startswith("usage: betaforge") and error in err


# ---------------------------------------------------------------------------
# routing a call: the scan, or else the top-level parser


def _spy_on_the_top_level_parser(monkeypatch) -> list:
    """The argv of every call that reaches the top-level parser."""
    parser = build_parser()
    calls = []
    parse_args = parser.parse_args

    def spy(args, *rest):
        calls.append(list(args))
        return parse_args(args, *rest)

    monkeypatch.setattr(parser, "parse_args", spy)
    return calls


def test_only_verify_and_what_names_no_command_reach_the_top_level_parser(capsys, monkeypatch):
    calls = _spy_on_the_top_level_parser(monkeypatch)
    for argv in COMMAND_ARGVS:
        assert run(capsys, *argv)[0] == 0, argv
    # the word commands' plain calls are read by the scan alone
    assert calls == [["verify", "constants"]]
    # what names no command reaches the top-level parser, once each
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "verify" in out
    code, _, err = run(capsys)
    assert code == 2 and "usage" in err
    code, _, err = run(capsys, "frobnicate", "1(0)*")
    assert code == 2 and "invalid choice" in err
    assert calls == [["verify", "constants"], ["--help"], [], ["frobnicate", "1(0)*"]]


@pytest.mark.parametrize("argv", SHARED_PARSER_ARGVS + COMMAND_ARGVS)
def test_routing_builds_the_top_level_namespace(argv):
    assert vars(_parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["eval", "--bogus", "1(0)*"],
    ["eval", "--digits", "x", "1(0)*"],
    ["orbit", "--format", "xml", "(01)*"],
    ["count"],
    ["verify", "--profile", "slow", "constants"],
    ["eval", "-h"],
])
def test_routing_reports_as_the_top_level_parser_does(capsys, argv):
    routed = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    assert routed == (exc.value.code or 0, captured.out, captured.err)
    assert routed[0] == (0 if argv[-1] == "-h" else 2)


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["betaforge", "eval", "(0)*"])
    assert main() == 0
    assert capsys.readouterr().out == "0 / 0.000000\n"


def test_a_word_command_does_not_load_the_verify_suite():
    src = str(Path(betaforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, betaforge.cli; sys.exit(int('betaforge.verify' in sys.modules))"],
        env=env, timeout=60)
    assert child.returncode == 0


# ---------------------------------------------------------------------------
# the scan of a word command's plain call


# calls of a word command that the scan hands on to argparse, and the exit
# code each gets
DEFERRED_ARGVS = [
    (["eval", "-h"], 0),
    (["region", "--help"], 0),
    (["eval", "--", "1(0)*"], 0),
    (["eval", "-"], 2),
    (["eval", "--dig", "9", "1(0)*"], 0),
    (["eval", "--digits=9", "1(0)*"], 0),
    (["eval", "--digits", "-5", "1(0)*"], 2),
    (["eval", "--digits", "x", "1(0)*"], 2),
    (["orbit", "--format", "xml", "(01)*"], 2),
    (["count"], 2),
    (["eval", "1(0)*", "0(1)*"], 2),
]


def test_only_a_call_the_scan_turns_down_reaches_the_top_level_parser(capsys, monkeypatch):
    # a plain call reaches no parser
    # (test_only_verify_and_what_names_no_command_reach_the_top_level_parser)
    calls = _spy_on_the_top_level_parser(monkeypatch)
    for argv, code in DEFERRED_ARGVS:
        calls.clear()
        assert run(capsys, *argv)[0] == code, argv
        # read once, by the top-level parser alone
        assert calls == [argv], argv


_OPTIONS = ("--field", "--digits", "--format", "--max-steps", "--max-nodes", "--max-depth",
            "--max-count")
# values an option may meet: ints that argparse's int() takes or refuses,
# choices in and out of range, fields, the empty string
_VALUES = ("6", "0", "-5", "+7", " 8 ", "\u0663", "1_0", "x", "text", "json", "csv", "xml",
           "q2", "golden", "")
_WORDS = ("1(0)*", "00(01)*", "")
# tokens the scan turns down, or a second word
_ODD = ("--fi", "--dig", "--form", "--max-s", "--max", "--plus", "--digits=9", "--format=json",
        "--field=qf", "--plus-one=1", "-h", "--help", "--", "-") + _OPTIONS + _WORDS


@settings(max_examples=400, deadline=None)
@example(command="eval", parts=[("--digits", "9"), ("--digits", "12"), ("--format", "json")],
         word="1(0)*", at=1)
@given(command=st.sampled_from(("eval", "region", "orbit", "count", "enumerate")),
       parts=st.lists(st.one_of(st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)),
                                st.just(("--plus-one",)), st.tuples(st.sampled_from(_ODD))),
                      max_size=5),
       word=st.sampled_from(_WORDS), at=st.integers(0, 5))
def test_the_scan_builds_the_namespace_the_top_level_parser_builds(command, parts, word, at):
    argv = [command, *(token for part in (*parts[:at], (word,), *parts[at:]) for token in part)]
    args = _scan(argv, build_parser().word_tables[command])
    if args is not None:
        # parse_args exits on any argument it leaves over
        assert vars(args) == vars(build_parser().parse_args(argv))
