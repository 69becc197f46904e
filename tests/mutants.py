"""The mutation table: source mutations that the tier-1 tests must catch.

Each row replaces one exact text in one module of ``src/betaforge`` and
names the tests that must fail on that mutant.  The runner copies ``src``,
``tests`` and README.md into a temporary directory, applies the row there,
runs the named tests with pytest, and reports the row as

    killed    every named test failed;
    timeout   pytest ran past TIMEOUT seconds: the mutant hangs the
              named tests, which counts as killed;
    partial   some named test passed: the row's claim no longer holds;
    survived  every named test passed.

Every row is checked before any runs: a row whose old text does not occur
exactly once in its module is refused, so a refactor that moves the code
fails loudly and the same change updates the row.  A row goes only with
the code it mutates.

    python tests/mutants.py               # every row, two at a time
    python tests/mutants.py --self-check  # the runner's own checks

The exit code is 0 when every row was killed or timed out (under --self-check, when
the runner refuses and reports as it should), and 1 otherwise.  Tier-1 does
not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # rows run at once, each in its own pytest process
TIMEOUT = 600  # seconds one row's pytest process may take


class Row(NamedTuple):
    id: str
    module: str  # a file of src/betaforge
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root
    why: str


_BRANCHING = "tests/test_branching.py::"
_CLI = "tests/test_cli.py::"

ROWS = (
    Row("rich-one-edge-late", "branching.py",
        "rich or inner[v] > size - len(stack)", "rich or inner[v] > size - len(stack) + 1",
        (_BRANCHING + "test_classify_double_self_loop_is_continuum",
         _BRANCHING + "test_counts_match_the_remainder_recount[qf]"),
        "an SCC with one inner edge more than nodes already has continuum many paths"),
    Row("cyclic-one-edge-late", "branching.py",
        "if inner[v]:", "if inner[v] > 1:",
        (_BRANCHING + "test_classify_matches_the_dict_reference",),
        "a component with one inner edge holds a cycle: countably many paths"),
    Row("eval-digit-one-not-den", "words.py",
        "num[0] += den", "num[0] += 1",
        ("tests/test_words.py::test_period_inverses_are_kept_up_to_the_bound",
         "tests/test_words.py::test_shift_applies_the_digit_map"),
        "a preperiod digit 1 adds 1, that is den over den, before the division by q"),
    Row("at-most-stops-at-the-ceiling", "branching.py",
        "if count > ceiling:", "if count >= ceiling:",
        (_BRANCHING + "test_at_most_agrees_with_count_expansions_on_every_small_word[qf-caps1]",
         _BRANCHING + "test_at_most_from_a_switch_point"),
        "a count equal to k is still a candidate exact answer; only a count past k decides"),
    Row("capped-stretch-marked-exact", "branching.py",
        "return counts, kind is TERMINAL", "return counts, True",
        (_BRANCHING + "test_at_most_with_the_level_cap_inside_a_forced_stretch[qf-111111(1110)*-None]",
         _BRANCHING + "test_at_most_of_the_domain_ends_is_one[golden]"),
        "a stretch cut by the level cap has not closed a cycle: its count is only a floor"),
    Row("repeat-not-marked-exact", "branching.py",
        "            if key in seen:\n                return counts, True",
        "            if key in seen:\n                return counts, False",
        (_BRANCHING + "test_at_most_agrees_with_count_expansions_on_every_small_word[q2-caps2]",
         _BRANCHING + "test_at_most_from_a_switch_point"),
        "a repeated level fixes every later count, so its count is exact"),
    Row("node-cap-one-late", "branching.py",
        "if t is None and kind is NODE and len(refs) < max_nodes:",
        "if t is None and kind is NODE and len(refs) <= max_nodes:",
        (_BRANCHING + "test_kernel_matches_element_loops_on_canonical_words[q2]",
         "tests/test_cli.py::test_count_and_enumerate_pinned_on_q2[q2_0]"),
        "a walk that holds max_nodes nodes is full: the next new switch point is a limit"),
    Row("segment-from-the-stored-run", "branching.py",
        "segments.append(run[1])", "segments.append((entry[slot] or run)[1])",
        (_BRANCHING + "test_a_kept_record_keeps_its_limit_segments[qf]",
         _BRANCHING + "test_memo_runs_stored_under_a_larger_step_budget"),
        "an edge's segment is its run's under the walk's budget: a stored run at or past the "
        "budget is cut, not read whole"),
    Row("memo-never-replaced", "branching.py",
        "if memo is None or len(memo.graph) >= _MEMO_CAP:", "if memo is None:",
        (_BRANCHING + "test_a_full_field_graph_is_replaced[qf-3]",
         _BRANCHING + "test_a_full_field_graph_is_replaced[q2-500]"),
        "a field's graph grows by every switch point a walk reaches: only the cap bounds it"),
    Row("record-nodes-reversed", "branching.py",
        "tuple([graph[ref][0] for ref in refs])", "tuple([graph[ref][0] for ref in refs][::-1])",
        (_BRANCHING + "test_views_equal_eager_builds",
         _BRANCHING + "test_a_full_field_graph_is_replaced[qf-3]",
         _BRANCHING + "test_kernel_matches_element_loops_on_canonical_words[qf]"),
        "a record's node i is the switch point the walk gave local id i: the edges out of it "
        "and the targets into it name it by that id"),
    Row("terminal-target-off-by-one", "branching.py",
        "return ~terminal_ids.setdefault(end, len(terminal_ids))",
        "return -terminal_ids.setdefault(end, len(terminal_ids))",
        (_BRANCHING + "test_counts_match_the_remainder_recount[qf]",
         _BRANCHING + "test_kernel_matches_element_loops_on_canonical_words[golden]"),
        "terminal t is the local target ~t = -t - 1: -t makes terminal 0 into node 0"),
    Row("rule-kept-under-another-denominator", "numberfield.py",
        "self._rules[den] = rule", "self._rules[den + 1] = rule",
        (_BRANCHING + "test_kernel_matches_element_loops_on_canonical_words[golden]",
         _BRANCHING + "test_region_rules_past_the_bound_answer_like_region"),
        "a rule's thresholds hold for its own denominator only: read for another, they place "
        "values wrongly"),
    Row("upper-switch-bound-excluded", "numberfield.py",
        "x._cmp(switch) <= 0", "x._cmp(switch) < 0",
        ("tests/test_words.py::test_region_golden_one_is_boundary",
         _BRANCHING + "test_golden_cycle_is_countably_infinite"),
        "the switch interval is closed: a point at exactly 1/(q(q-1)), golden's 1, is a switch "
        "point, not HIGH"),
    Row("sieve-without-exact-fallback", "numberfield.py",
        "else Region.HIGH if s - e > hi1 else None) or exact(num)",
        "else Region.HIGH if s - e > hi1 else None)",
        (_BRANCHING + "test_a_rules_sieve_places_like_locate_and_region",
         _BRANCHING + "test_region_rules_past_the_bound_answer_like_region",
         "tests/test_words.py::test_region_golden_one_is_boundary",
         "tests/test_words.py::test_a_reducible_fields_first_rule_is_built_whole"),
        "where the filter sum cannot decide against the thresholds, only the exact comparison "
        "places the value: without it region answers None at a bound"),
    Row("tie-answers-one", "numberfield.py",
        "return 0 if self.den == o.den", "return 1 if self.den == o.den",
        ("tests/test_words.py::test_region_golden_one_is_boundary",
         _BRANCHING + "test_a_domain_bound_rebuilt_by_another_route_ties_without_subtracting[golden]"),
        "equal reduced lattice forms are equal values: a tie compares 0, and golden's 1, which "
        "is 1/(q(q-1)), is a switch point"),
    Row("tie-tests-num-without-den", "numberfield.py",
        "self.den == o.den and self.num == o.num else", "self.num == o.num else",
        (_BRANCHING + "test_an_undecided_pair_of_distinct_forms_is_ordered_by_subtracting",),
        "equal numerators over different denominators are distinct values: y/3 and y/5 with "
        "y = q^-200 in q2 pass the filter undecided and only the subtraction orders them"),
    Row("tracker-q-up-is-q", "numberfield.py",
        "consts = [q, _float_up((2 * q1 + 3) * (wide + 1), wide << p + 1),", "consts = [q, q,",
        (_BRANCHING + "test_tracker_constants_satisfy_the_error_bound[q2]",
         _BRANCHING + "test_tracker_constants_satisfy_the_error_bound[golden]"),
        "q rounded to nearest may lie below q: the error bound must grow by an upper bound of q"),
    Row("tracker-kappa-zero", "numberfield.py",
        "_float_up(delta * reach * b + ((a * reach + b * scale) << p - 47),\n"
        "                                scale * b << p + 1)]", "0.0]",
        (_BRANCHING + "test_tracker_constants_satisfy_the_error_bound[qf]",
         _BRANCHING + "test_tracker_constants_satisfy_the_error_bound[sqrt2]"),
        "each step's roundings and q's own error add to the bound; without them it is not one"),
    Row("tracker-guard-dropped", "branching.py",
        "if eps < 0.25:", "if True:",
        (_BRANCHING + "test_the_tracker_restarts_where_its_bound_reaches_a_quarter[q2]",
         _BRANCHING + "test_the_tracker_restarts_where_its_bound_reaches_a_quarter[qf]"),
        "kappa holds for |x| <= T + 1 only: past 1/4 the tracker stops and a placement restarts it"),
    Row("branch-seed-bound-not-stepped", "branching.py",
        "(q * x, q_up * eps + kappa) if eps < 0.25", "(q * x, eps) if eps < 0.25",
        (_BRANCHING + "test_every_run_starts_from_the_tracker_its_start_gives[q2]",
         _BRANCHING + "test_every_run_starts_from_the_tracker_its_start_gives[qf]"),
        "a branch starts one kernel step on from its switch point's tracker: its bound grows by "
        "that step's q⁺ and κ, as every step's does"),
    Row("start-seed-without-kappa", "branching.py",
        "e * rule.scale + x.field._tracker[2]", "e * rule.scale",
        (_BRANCHING + "test_runs_equal_the_region_loop_on_every_small_word[q2]",
         _BRANCHING + "test_every_run_starts_from_the_tracker_its_start_gives[golden]"),
        "a run from a placed point starts from the placement's own restart: e * c bounds the "
        "sum's error, and κ covers the roundings of s * c"),
    Row("float-up-not-corrected", "numberfield.py",
        "return f if a * d >= n * b else math.nextafter(f, math.inf)", "return f",
        ("tests/test_numberfield.py::test_float_up_and_its_negation_bracket_the_ratio",),
        "n / d rounds to nearest, which may lie on either side of n/d: an outward bound "
        "steps to the next double when it fell inside"),
    Row("branch-starts-at-phi", "numberfield.py",
        "consts[-1] < 1.0)", "True)",
        (_BRANCHING + "test_branch_starts_are_placed_at_phi",
         _BRANCHING + "test_tracker_constants_satisfy_the_error_bound[sqrt2]"),
        "at q = phi, q * (1/q) = 1 is a switch point, and below phi q * s - 1 may not be LOW"),
    Row("branch-starts-swapped", "branching.py",
        "starts = (HIGH, LOW) if", "starts = (LOW, HIGH) if",
        (_BRANCHING + "test_counts_match_the_remainder_recount[qf]",
         _BRANCHING + "test_kernel_matches_element_loops_on_canonical_words[q2]"),
        "digit 0 takes a switch point s to q * s >= 1, which is HIGH past phi; digit 1 to LOW"),
    Row("coefficient-check-dropped", "numberfield.py",
        "if coeffs != raw:", "if False:",
        ("tests/test_numberfield.py::test_define_field_refuses_a_coefficient_that_is_not_an_integer[float]",),
        "int() truncates -1.9 to -1 and builds another field than the one asked for"),
    Row("straddling-cell-not-compared", "numberfield.py",
        "or not 1 < q < 2)", "or False)",
        ("tests/test_numberfield.py::test_domain_bounds_decide_the_base_from_the_cell_or_exactly[straddles-2]",),
        "a cell that straddles 2 leaves q on either side: only the exact comparison decides"),
    Row("count-holds-max-count", "cli.py",
        '"count": (_cmd_count, ("--max-steps", "--max-nodes"),',
        '"count": (_cmd_count, ("--max-steps", "--max-nodes", "--max-count"),',
        (_CLI + "test_each_command_holds_the_options_its_help_shows",
         _CLI + "test_a_word_command_refuses_an_option_it_does_not_read[count---max-count-5-apart]"),
        "count reads no --max-count: an option it would accept and ignore"),
    Row("csv-offered-to-every-command", "cli.py",
        'formats = ("text", "json", "csv") if name == "orbit" else ("text", "json")',
        'formats = ("text", "json", "csv")',
        (_CLI + "test_csv_rejected_outside_orbit",
         _CLI + "test_a_word_command_refuses_an_option_it_does_not_read[count---format-csv-apart]",
         _CLI + "test_a_word_command_refuses_an_option_it_does_not_read[eval---format-csv-joined]"),
        "only orbit writes csv; any other command would answer in text under --format csv"),
    Row("product-fold-sign-flipped", "numberfield.py",
        'terms.append(_times(f"t{m}", row[k - m + d],', 'terms.append(_times(f"t{m}", -row[k - m + d],',
        (_BRANCHING + "test_compiled_product_matches_the_generic_loops",
         _BRANCHING + "test_products_match_the_schoolbook_reference",
         _BRANCHING + "test_powers_match_repeated_schoolbook_products"),
        "the product's upper terms fold in through q^d = +row: with -row it multiplies modulo "
        "another polynomial, still a commutative ring, so the ring axioms alone miss it"),
    Row("power-odd-bit-squares", "numberfield.py",
        "acc = product(acc, num)", "acc = product(acc, acc)",
        (_BRANCHING + "test_powers_match_repeated_schoolbook_products",
         "tests/test_numberfield.py::test_high_degree_word_value_is_fast"),
        "a set bit of the exponent multiplies by x once: squaring there doubles the exponent read "
        "so far instead of adding 1"),
    Row("readme-pointer-renamed", "words.py",
        "text of README's *Word grammar*.", "text of README's *Word syntax*.",
        ("tests/test_numberfield.py::test_every_readme_pointer_in_a_docstring_names_a_readme_section",),
        "a docstring that points into README must name a heading or bold bullet label it holds"),
)


def apply(row: Row, src: Path) -> None:
    """Write the row's mutant into the copy of the package at ``src``.
    Raises ValueError unless the row's old text occurs exactly once."""
    path = src / "betaforge" / row.module
    text = path.read_text()
    found = text.count(row.old)
    if found != 1:
        raise ValueError(f"row {row.id}: its old text occurs {found} times in {row.module}, not once")
    path.write_text(text.replace(row.old, row.new))


def run(row: Row) -> tuple[str, list[str]]:
    """The row's verdict ("killed", "timeout", "partial" or "survived") and
    the named tests that passed on its mutant, run on a mutated copy of src
    and tests beside a copy of README.md.  Raises RuntimeError when pytest
    cannot run the named tests."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=skip)
        shutil.copy(ROOT / "README.md", tmp)
        apply(row, Path(tmp) / "src")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *row.tests],
                cwd=tmp, capture_output=True, text=True, timeout=TIMEOUT,
                env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"})
        except subprocess.TimeoutExpired:
            return "timeout", []
    if proc.returncode not in (0, 1):  # 0: all passed, 1: some failed
        raise RuntimeError(f"row {row.id}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    passed = [t for t in row.tests if t not in failed]
    verdict = "survived" if len(passed) == len(row.tests) else "partial" if passed else "killed"
    return verdict, passed


def self_check() -> bool:
    """The runner reports an identity row as surviving, and refuses a row
    whose old text is missing or occurs more than once."""
    ok = True
    quick = (_BRANCHING + "test_prefix_counts_of_zero_are_all_one",)
    identity = Row("identity", "branching.py", "if count > ceiling:", "if count > ceiling:",
                   quick, "no change")
    verdict = run(identity)[0]
    print(f"identity row: {verdict}")
    ok &= verdict == "survived"
    with tempfile.TemporaryDirectory(prefix="mutant-check-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        for row in (identity._replace(id="missing", old="no such text in the module"),
                    identity._replace(id="repeated", old="return")):
            try:
                apply(row, Path(tmp) / "src")
            except ValueError as exc:
                print(f"refused: {exc}")
            else:
                print(f"row {row.id} was applied")
                ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--self-check", action="store_true", help="check the runner itself")
    args = parser.parse_args(argv)
    if args.self_check:
        return 0 if self_check() else 1
    with tempfile.TemporaryDirectory(prefix="mutant-check-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        for row in ROWS:  # every row is checked before any runs
            apply(row, Path(tmp) / "src")
            shutil.copy(ROOT / "src" / "betaforge" / row.module, Path(tmp) / "src" / "betaforge")

    def timed(row: Row) -> tuple[Row, str, list[str], float]:
        start = time.perf_counter()
        return (row, *run(row), time.perf_counter() - start)

    killed = 0
    with ThreadPoolExecutor(JOBS) as pool:
        for row, verdict, passed, seconds in pool.map(timed, ROWS):
            killed += verdict in ("killed", "timeout")
            limit = f" of {TIMEOUT} s allowed" if verdict == "timeout" else ""
            print(f"{verdict:8} {row.id} ({seconds:.1f} s{limit}): {row.why}", flush=True)
            for test in passed:
                print(f"         passed: {test}")
    print(f"{killed} of {len(ROWS)} rows killed")
    return 0 if killed == len(ROWS) else 1


if __name__ == "__main__":
    sys.exit(main())
