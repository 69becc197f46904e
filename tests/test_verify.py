"""Tests for the verification suite: every check passes on the frozen
reference values, a corrupted value is caught and named, and the runner's
selection, profiles, and report shapes behave as documented."""

import copy
import json
from decimal import Decimal
from pathlib import Path

import pytest

from betaforge import (Cardinality, PeriodicWord, Region, deterministic_run, eval_word, parse_word,
                       q2_field, verify)
from betaforge import fixtures
from betaforge.numberfield import AlgebraicReal
from betaforge.verify import (
    CHECK_IDS,
    CheckResult,
    PROFILES,
    check_branch_families,
    check_constants,
    check_counts_family,
    check_exceptional_rows,
    check_no_triple,
    check_orbit_identities,
    check_table,
    check_tail_bounds,
    check_two_point,
    family_word,
    render_records,
    render_text,
    run_all,
)


@pytest.fixture(scope="module")
def quick_results():
    return run_all("quick")


def test_quick_profile_all_pass(quick_results):
    assert [r.check_id for r in quick_results] == sorted(CHECK_IDS)
    failed = [r for r in quick_results if not r.passed]
    assert not failed, render_text(failed)


def test_run_all_is_deterministic(quick_results):
    again = run_all("quick")
    key = lambda rs: [(r.check_id, r.status, r.witness) for r in rs]
    assert key(again) == key(quick_results)


def test_fault_injection_names_the_row(monkeypatch):
    mutated = tuple(
        (word, ("1.277400",) + cells[1:] if word == "00(01)*" else cells)
        for word, cells in fixtures.TABLE_T1
    )
    assert mutated != fixtures.TABLE_T1
    monkeypatch.setattr(fixtures, "TABLE_T1", mutated)
    results = run_all("quick", check_ids=["T1", "T2"])
    by_id = {r.check_id: r for r in results}
    assert not by_id["T1"].passed
    assert by_id["T2"].passed
    witness = by_id["T1"].witness
    assert witness == "T1 row 00(01)* column 0: computed 1.1774010, table says 1.277400"
    assert sum(not r.passed for r in results) == 1


def _bumped(cell: str) -> str:
    """A decimal string moved by ten units in its last place: outside every
    tolerance a check allows for it."""
    d = Decimal(cell)
    return str(d + Decimal(10) ** (d.as_tuple().exponent + 1))


def _decimal_bumped(cell):
    new_cell = _bumped(cell)
    return new_cell, new_cell


def _first_iterate_row(table, new_cells):
    """The table with its first iterate row's cells replaced by
    ``new_cells(cells)``, and that row's word and cells."""
    row = next(i for i, (_, cells) in enumerate(table) if cells != fixtures.UNIQUE)
    word, cells = table[row]
    return table[:row] + ((word, new_cells(cells)),) + table[row + 1:], word, cells


def _first_cell_bumped(table):
    new_table, _, cells = _first_iterate_row(table, lambda cells: (_bumped(cells[0]),) + cells[1:])
    return new_table, _bumped(cells[0])


def _last_cell_dropped(table):
    new_table, word, cells = _first_iterate_row(table, lambda cells: cells[:-1])
    return new_table, f"row {word}: {len(cells)} iterates, table lists {len(cells) - 1}"


def _marked_unique(table):
    new_table, word, _ = _first_iterate_row(table, lambda cells: fixtures.UNIQUE)
    return new_table, f"row {word}: expected a unique tail, got SwitchHit"


def _unique_given_cells(table):
    """The table with its first UNIQUE row given the first iterate row's
    cells: that row's orbit ends in a unique tail, not a switch point."""
    row = next(i for i, (_, cells) in enumerate(table) if cells == fixtures.UNIQUE)
    word = table[row][0]
    cells = next(cells for _, cells in table if cells != fixtures.UNIQUE)
    new_table = table[:row] + ((word, cells),) + table[row + 1:]
    return new_table, f"row {word}: orbit did not reach the branching region (UniqueTail)"


def _reversed(value):
    return tuple(reversed(value)), None


@pytest.mark.parametrize("name, check_id, corrupt", [
    ("Q2_DECIMALS_15", "constants", _decimal_bumped),
    ("QF_DECIMALS_5", "constants", _decimal_bumped),
    ("SWITCH_LO_6", "constants", _decimal_bumped),
    ("SWITCH_HI_6", "constants", _decimal_bumped),
    ("EPS1_VALUE_6", "two-point", _decimal_bumped),
    ("EPS3_VALUE_6", "two-point", _decimal_bumped),
    ("TARGET_A_5", "orbit-identities", _decimal_bumped),
    ("TARGET_B_5", "orbit-identities", _decimal_bumped),
    ("X3_EXPANSIONS", "counts-family", _reversed),
    ("ALEPH0_FIRST_SIX", "counts-family", _reversed),
    ("TABLE_T1", "T1", _last_cell_dropped),
    ("TABLE_T1", "T1", _marked_unique),
    ("TABLE_T1", "T1", _unique_given_cells),
    ("TABLE_T2", "T2", _first_cell_bumped),
    ("TABLE_T3", "T3", _first_cell_bumped),
    ("TABLE_T4", "T4", _first_cell_bumped),
])
def test_one_corrupted_fixture_fails_only_its_check(monkeypatch, name, check_id, corrupt):
    # corrupt() returns the new fixture value and the text the witness must
    # name (None where the witness prints the computed value instead)
    value, named = corrupt(getattr(fixtures, name))
    assert value != getattr(fixtures, name)
    monkeypatch.setattr(fixtures, name, value)
    failed = [r for r in run_all("quick") if not r.passed]
    assert [r.check_id for r in failed] == [check_id]
    if named is not None:
        assert named in failed[0].witness


def test_quick_witnesses_match_the_frozen_bench_file(quick_results):
    frozen = Path(__file__).resolve().parents[1] / "bench" / "verify_quick_witnesses.json"
    expected = json.loads(frozen.read_text())
    assert {r.check_id: [r.status, r.witness] for r in quick_results} == expected


def test_corrupted_branch_word_fails_checks_without_raising(monkeypatch):
    # the family words read the branch word when the check runs
    monkeypatch.setattr(fixtures, "EPS1", "001(10)*")
    results = run_all("quick")
    assert [r.check_id for r in results] == sorted(CHECK_IDS)
    by_id = {r.check_id: r for r in results}
    assert not by_id["branch-families"].passed
    assert by_id["branch-families"].witness == (
        "e1 k=1 j=0: branch node 0.645198 is not the family branch value")
    assert str(family_word("e1", 1)) == "0001(10)*"


def _over_counting_prefix_oracle(monkeypatch):
    oracle = verify.viable_prefix_counts
    monkeypatch.setattr(verify, "viable_prefix_counts",
                        lambda x, depth: [c + 1 for c in oracle(x, depth)])


def test_an_over_counting_prefix_oracle_fails_the_family_checks(monkeypatch):
    # each witness names the first member the oracle is asked about, the
    # depth and the count it gave
    _over_counting_prefix_oracle(monkeypatch)
    branch = check_branch_families(*PROFILES["quick"])
    counts = check_counts_family(PROFILES["quick"][0])
    assert (branch.status, branch.witness) == (
        "fail", "e1 k=1 j=0: prefix oracle at depth 40 gives 3")
    assert (counts.status, counts.witness) == ("fail", "k=1: prefix oracle at depth 40 gives 2")


def _swapped_targets(monkeypatch):
    targets = verify._targets
    monkeypatch.setattr(verify, "_targets", lambda q: targets(q)[::-1])


def _last_digit_dropped(monkeypatch):
    apply_digits = verify.apply_digits
    monkeypatch.setattr(verify, "apply_digits",
                        lambda x, digits: apply_digits(x, tuple(digits)[:-1]))


def _first_row_final_as_branch_value(monkeypatch):
    q2 = q2_field()
    final = deterministic_run(eval_word(parse_word("00101(10)*"), q2) + 1).end.value
    specials = verify._specials
    monkeypatch.setattr(verify, "_specials", lambda field: (final, specials(field)[1]))


def _graph_changed(name, change):
    # every branch graph the check builds gets change(graph) as its field name
    def patch(monkeypatch):
        build = verify.build_branch_graph

        def changed(x):
            graph = copy.copy(build(x))
            setattr(graph, name, change(graph))
            return graph
        monkeypatch.setattr(verify, "build_branch_graph", changed)
    return patch


def _classified_finite_3(monkeypatch):
    monkeypatch.setattr(verify, "classify", lambda graph: Cardinality.finite(3))


def _region_low(monkeypatch):
    monkeypatch.setattr(verify, "region", lambda x: Region.LOW)


def _counted_as(answer):
    # every count the check makes answers answer(the true count)
    def patch(monkeypatch):
        count = verify.count_expansions
        monkeypatch.setattr(verify, "count_expansions",
                            lambda x, **caps: answer(count(x, **caps)))
    return patch


def _empty_tail_interval(monkeypatch):
    # every tail interval (q-1, T1(U)] shrinks to (q-1, q-1]
    tail_interval = verify._tail_interval
    monkeypatch.setattr(verify, "_tail_interval",
                        lambda *args: (tail_interval(*args)[0],) * 2)


def _first_branch_value_twice(monkeypatch):
    specials = verify._specials
    monkeypatch.setattr(verify, "_specials", lambda field: (specials(field)[0],) * 2)


def _targets_as_branch_values(monkeypatch):
    monkeypatch.setattr(verify, "_specials", lambda field: verify._targets(field.q))


def _sign_flipped(monkeypatch):
    sign = AlgebraicReal.sign
    monkeypatch.setattr(AlgebraicReal, "sign", lambda x: -sign(x))


def _switch_floor_at_q(monkeypatch):
    # the branching region's lower end 1/q moved up to q, above every value
    bounds = verify.domain_bounds
    monkeypatch.setattr(verify, "domain_bounds", lambda field: (field.q, *bounds(field)[1:]))


def _power_changed(exponent):
    # x**n computes x**exponent(n)
    def patch(monkeypatch):
        power = AlgebraicReal.__pow__
        monkeypatch.setattr(AlgebraicReal, "__pow__", lambda x, n: power(x, exponent(n)))
    return patch


def _branch_families():
    return check_branch_families(*PROFILES["quick"])


def _counts_family():
    return check_counts_family(PROFILES["quick"][0])


def _orbit_identities():
    return check_orbit_identities(PROFILES["quick"][1])


@pytest.mark.parametrize("patch, check, witness", [
    (_swapped_targets, check_exceptional_rows,
     "second row final 0.5928259 != target 0.8143483"),
    (_last_digit_dropped, _orbit_identities,
     "first identity fails at j=3: 0.931126384 != 0.592825851"),
    (_last_digit_dropped, check_exceptional_rows,
     "first row final differs from the k=2 alternating row final"),
    (_first_row_final_as_branch_value, check_exceptional_rows,
     "00101(10)*: final value 0.734788 is a double-expansion value"),
    (_graph_changed("truncated", lambda graph: True), _branch_families,
     "e1 k=1 j=0: graph truncated"),
    (_graph_changed("nodes", lambda graph: {**graph.nodes, -1: graph.start}), _branch_families,
     "e1 k=1 j=0: 2 branch nodes, expected 1"),
    (_graph_changed("root_segment", lambda graph: (*graph.root_segment[:-1],
                                                 1 - graph.root_segment[-1])),
     _branch_families, "e1 k=1 j=0: forced prefix differs from the word"),
    (_classified_finite_3, _branch_families, "e1 k=1 j=0: classified Finite(3)"),
    (_region_low, check_two_point, "0.645198 not in the branching region"),
    (_counted_as(lambda c: Cardinality.finite(3)), check_two_point,
     "count at first value: Finite(3), expected Finite(2)"),
    (_counted_as(lambda c: Cardinality.finite(2)), check_two_point,
     "0000(10)* is not uniquely expandable: Finite(2)"),
    (_counted_as(lambda c: Cardinality.finite(3)), _counts_family,
     "k=1: classified Finite(3), expected Finite(1)"),
    (_counted_as(lambda c: Cardinality.continuum() if c == Cardinality.aleph0() else c),
     _counts_family, "1(0)* classified Continuum, expected CountablyInfinite"),
    (_region_low, check_tail_bounds,
     "00000000001(10)*: final value left the branching region"),
    (_empty_tail_interval, check_tail_bounds,
     "00000000001(10)*: final value 0.7194427 outside (q-1, T1(U)]"),
    (_first_branch_value_twice, check_tail_bounds,
     "zeros+e1, k>=7: T1(U) 0.7546889 not below the second branch value"),
    (_sign_flipped, check_constants,
     "sign(q^6-q^5-2q^4+q^2+q+1) = 1 in the quartic base, expected -1"),
    (_switch_floor_at_q, _counts_family,
     "k=2: member value 0.598733 not above 1/q, the first digit is not forced"),
    (_over_counting_prefix_oracle, lambda: check_table("T1"),
     "T1 row 0(01)*: prefix oracle at depth 40 != 1"),
    (_region_low, _orbit_identities, "target A 0.592826 not in the branching region"),
    (_targets_as_branch_values, _orbit_identities,
     "target A equals a double-expansion branch value"),
    # past the cube a power loses a factor; a negative exponent loses its sign
    (_power_changed(lambda n: n - 1 if n > 3 else n), _orbit_identities,
     "closed form fails at j=1"),
    (_power_changed(abs), _orbit_identities, "cancellation expression nonzero at j=1"),
])
def test_a_broken_helper_fails_its_check_with_the_whole_witness(monkeypatch, patch, check,
                                                                witness):
    patch(monkeypatch)
    result = check()
    assert (result.status, result.witness) == ("fail", witness)


def test_passing_check_formats_no_decimal(monkeypatch):
    # a failure witness is formatted only when its check fails, and the
    # branch-families witness prints no value
    calls = []
    to_decimal = AlgebraicReal.to_decimal
    monkeypatch.setattr(AlgebraicReal, "to_decimal",
                        lambda x, digits=6: calls.append(digits) or to_decimal(x, digits))
    assert check_branch_families(*PROFILES["quick"]).passed
    assert calls == []


def test_unknown_table_rejected():
    with pytest.raises(ValueError, match="unknown table"):
        check_table("T9")


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="profile"):
        run_all("exhaustive")


def test_unknown_check_ids_rejected():
    with pytest.raises(ValueError, match="nope"):
        run_all("quick", check_ids=["constants", "nope"])


def test_check_id_filter_runs_only_selected():
    results = run_all("quick", check_ids=["constants"])
    assert [r.check_id for r in results] == ["constants"]
    assert results[0].passed
    # any iterable of ids, read once
    assert [r.check_id for r in run_all("quick", iter(["T4", "T1"]))] == ["T1", "T4"]


def test_a_check_named_twice_runs_once(monkeypatch):
    ran = []
    check_table = verify.check_table
    monkeypatch.setattr(verify, "check_table", lambda t: ran.append(t) or check_table(t))
    results = run_all("quick", ["T4", "T1", "T4", "T1", "constants"])
    assert [r.check_id for r in results] == ["T1", "T4", "constants"]
    assert sorted(ran) == ["T1", "T4"]


def test_profiles_table():
    assert PROFILES["quick"] == (8, 8)
    assert PROFILES["full"] == (50, 50)


def test_checks_pass_at_small_bounds():
    assert check_counts_family(3).passed
    assert check_branch_families(3, 2).passed
    assert check_orbit_identities(4).passed


def test_quartic_reading_prints_its_floor_without_the_limit():
    # the informational count is truncated; its limit does not reach the text
    result = check_counts_family(1)
    assert result.passed
    assert result.witness.endswith("quartic-base reading (informational): LowerBound(111)")


def test_single_checks_pass():
    assert check_two_point().passed
    assert check_no_triple().passed
    assert check_tail_bounds().passed
    assert check_exceptional_rows().passed


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_counts_family(0),
        lambda: check_branch_families(1, 1),
        lambda: check_branch_families(2, 0),
        lambda: check_orbit_identities(2),
    ],
)
def test_bound_validation(call):
    with pytest.raises(ValueError):
        call()


def test_family_word_shapes():
    assert family_word("e1", 1) == PeriodicWord((0, 0, 1), (1, 0))
    assert str(family_word("e1", 3)) == "00001(10)*"
    assert str(family_word("e3", 2)) == "000111(10)*"
    assert str(family_word("e1-alt", 1, 2)) == "0010101(10)*"
    assert str(family_word("e3-alt", 2, 1)) == "00100111(10)*"


# each family's members as text, the form the words were once built from:
# name -> (k_min, uses j, prefix text, branch-value fixture)
_FAMILY_TEXT = {
    "e1": (1, False, lambda k, j: "0" * k, "EPS1"),
    "e3": (2, False, lambda k, j: "0" * k, "EPS3"),
    "e1-alt": (1, True, lambda k, j: "0" * k + "01" * j, "EPS1"),
    "e3-alt": (2, True, lambda k, j: "0" * k + "10" * j, "EPS3"),
}


def test_family_words_equal_their_text_form():
    members = 0
    for name, (k_min, uses_j, prefix, branch) in _FAMILY_TEXT.items():
        for k in range(k_min, 51):
            for j in (range(1, 51) if uses_j else (0,)):
                text = prefix(k, j) + getattr(fixtures, branch)
                assert family_word(name, k, j) == parse_word(text), text
                members += 1
    assert members == 5049  # every member of the full profile


def test_family_word_validation():
    with pytest.raises(ValueError, match="unknown family"):
        family_word("e2", 1)
    with pytest.raises(ValueError, match="k >="):
        family_word("e3", 1)
    # the zero-block family over the second branch value starts at k = 2
    with pytest.raises(ValueError, match="requires k >= 2"):
        family_word("e3-alt", 1, 1)
    with pytest.raises(ValueError, match="j >="):
        family_word("e3-alt", 2)
    with pytest.raises(ValueError, match="no j"):
        family_word("e1", 1, 1)


def test_check_result_record_keys():
    r = CheckResult("demo", "pass", "all good", 0.0123)
    rec = r.record()
    assert rec == {
        "id": "demo",
        "status": "pass",
        "witness": "all good",
        "elapsed_ms": 12.3,
    }
    assert r.passed


def test_render_records_structure(quick_results):
    doc = render_records(quick_results, profile="quick")
    assert doc["profile"] == "quick"
    assert doc["passed"] == len(CHECK_IDS)
    assert doc["failed"] == 0 and doc["skipped"] == 0
    assert [rec["id"] for rec in doc["results"]] == sorted(CHECK_IDS)
    assert all(rec["status"] == "pass" for rec in doc["results"])


def test_render_text_summary_line(quick_results):
    text = render_text(quick_results)
    lines = text.splitlines()
    assert len(lines) == len(CHECK_IDS) + 1
    assert lines[-1] == f"{len(CHECK_IDS)} passed, 0 failed, 0 skipped"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_module_re_export():
    assert verify.run_all is run_all
