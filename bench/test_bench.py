"""Tests of the benchmark itself: every validator rejects a corrupted answer,
the tracer sees calls through every import site, host-speed readings stay
out of the ops' times, inputs come in whole blocks fixed by the seed, and
the metric names match BENCHMARK.json.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import itertools
import json
import time

import worker  # puts the betaforge sources on sys.path
import hostspeed
import run
import tracing

from betaforge import Cardinality, PeriodicWord, golden_field, q2_field, qf_field
from betaforge.words import eval_word
import classify
import queries


def failed_share(workload, inp, corrupt):
    """failed_share of two ops on ``inp``: the true answer and ``corrupt`` of it."""
    wl = worker.load(workload)
    answer = wl.run(inp)
    records = [(inp, answer, 1.0, 1.0), (inp, corrupt(answer), 1.0, 1.0)]
    decided, errors = worker.check_all(wl, records)
    result = {"latency_s": [1.0, 1.0], "scaled_s": [1.0, 1.0], "label": ["a", "b"],
              "rss_mb": 1.0, "decided": decided, "failed": len(errors), "errors": errors}
    return run.end_to_end([0.1], [result])["failed_share"][0]


def point(field, text):
    word = PeriodicWord(*text)
    fields = {"q2": q2_field, "qf": qf_field, "golden": golden_field}
    return classify.Point(field, word, eval_word(word, fields[field]()))


def replace(answer, **changes):
    return dataclasses.replace(answer, **changes)


def test_classify_q2_rejects_a_wrong_count():
    inp = point("q2", ((0, 1), (1, 0)))  # 01(10)*: two expansions
    share = failed_share("classify-q2", inp, lambda a: replace(
        a, cardinality=Cardinality.finite(a.cardinality.count + 1)))
    assert share == 0.5


def test_classify_q2_rejects_a_wrong_word():
    inp = point("q2", ((0, 1), (1, 0)))
    share = failed_share("classify-q2", inp, lambda a: replace(
        a, words=(a.words[0], PeriodicWord((1, 1), (1, 0)))))
    assert share == 0.5


def test_classify_pisot_rejects_a_wrong_count():
    inp = point("qf", ((1, 0, 0, 0, 0, 0), (1, 0)))  # a member with Finite(2)
    share = failed_share("classify-pisot", inp, lambda a: replace(
        a, cardinality=Cardinality.finite(a.cardinality.count + 1)))
    assert share == 0.5


def test_classify_pisot_rejects_an_infinite_listing_marked_complete():
    inp = point("qf", ((1,), (0,)))  # 1/q: countably many expansions
    share = failed_share("classify-pisot", inp, lambda a: replace(a, complete=True))
    assert share == 0.5


def test_verify_quick_rejects_a_failed_check_and_a_changed_witness():
    assert failed_share("verify-quick", "T4", lambda a: replace(a, status="fail")) == 0.5
    assert failed_share("verify-quick", "T4",
                        lambda a: replace(a, witness=a.witness + ".")) == 0.5


def _bump_last_digit(text, decimal):
    bumped = decimal[:-1] + str((int(decimal[-1]) + 1) % 10)
    return text.replace(decimal, bumped)


def test_queries_reject_a_decimal_off_in_its_last_digit():
    for fmt in ("text", "json"):
        inp = queries.Query("q2", "eval", 15, fmt, (0, 1), (1, 0))

        def corrupt(a):
            decimal = (json.loads(a.stdout)["decimal"] if fmt == "json"
                       else a.stdout.rsplit(" / ", 1)[1].strip())
            return replace(a, stdout=_bump_last_digit(a.stdout, decimal))

        assert failed_share("queries", inp, corrupt) == 0.5


def test_queries_reject_a_wrong_region_and_a_wrong_orbit_value():
    inp = queries.Query("golden", "region", 6, "text", (1,), (0,))
    assert failed_share("queries", inp, lambda a: replace(a, stdout="high\n")) == 0.5
    for fmt in ("text", "json", "csv"):
        inp = queries.Query("qf", "orbit", 30, fmt, (0, 0, 0, 1), (1, 0))

        def corrupt(a):
            decimal = queries._orbit_rows(inp, a.stdout)[1][-1]
            return replace(a, stdout=_bump_last_digit(a.stdout, decimal))

        assert failed_share("queries", inp, corrupt) == 0.5


def test_tracer_counts_calls_made_through_imported_names():
    tracer = tracing.Tracer()
    tracing.install(tracer, classify)
    wl = worker.load("classify-q2")
    inp = point("q2", ((0, 1), (1, 0)))
    start = time.perf_counter()
    tracer.op(wl.run, inp)
    op_s = time.perf_counter() - start
    wl.check(inp, wl.run(inp))  # outside an op: not recorded
    raw = tracer.raw()
    # region is called through the names imported into branching
    assert raw["calls"]["words.region"] > 0
    assert raw["calls"]["branching.classify"] == 1
    assert raw["calls"]["branching.enumerate"] == 1
    assert raw["child_calls"]["op>branching.enumerate"] == 1
    # self times partition the op's duration
    assert abs(sum(raw["self_s"].values()) - op_s) < 1e-3


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = {"latency_s": [1.0, 2.0], "scaled_s": [1.0, 2.0], "label": ["a", "b"], "rss_mb": 1.0,
              "decided": 2, "failed": 0, "errors": [], "trace": {
                  "calls": {}, "self_s": {}, "child_calls": {}, "counts": {},
                  "interval_bits": {f"numberfield.interval_bits.{f}": 1.0
                                    for f in tracing.FIELDS}}}
    e2e = run.end_to_end([0.1], [result])
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name in e2e if name not in run.REPORT_ONLY]
    layers = run.per_layer([result], [result])
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for m in spec["per_layer"]:
        assert m["unit"] == layers[m["name"]][1]


def test_measure_scales_by_host_speed_and_keeps_input_order():
    class Spin:
        """An op that takes the given wall time, readings included."""

        def run(self, seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass
            return seconds

    sampler = hostspeed.Sampler()
    records = worker.measure(Spin(), [0.001] * 30 + [0.25], sampler)
    assert [r[1] for r in records] == [0.001] * 30 + [0.25]
    for _, _, measured, scaled in records:
        assert measured > 0 and scaled > 0
    # ops of one segment share one factor
    factors = [scaled / measured for _, _, measured, scaled in records]
    assert len(set(factors)) < len(factors)
    # the timer read the host speed during the long op, and the time spent
    # reading is not in the op's time
    assert len(sampler.readings) > len(set(factors)) + 10
    assert 0.15 < records[-1][2] < 0.25


def test_inputs_come_in_whole_blocks_fixed_by_the_seed():
    for name in run.WORKLOADS:
        wl = worker.load(name)
        first = list(itertools.islice(wl.inputs(7), 2 * wl.block))
        assert first == list(itertools.islice(wl.inputs(7), 2 * wl.block))
        assert run.blocks_for(name, 0.1) == 1
    q2 = worker.load("classify-q2")
    block = list(itertools.islice(q2.inputs(3), q2.block))
    shapes = {(len(p.word.preperiod), len(p.word.period)) for p in block}
    assert shapes == set(classify.SHAPES)
