"""Tests for orbit runs, branch graphs, cardinality classification,
enumeration, and the independent prefix-count oracle."""

import ast
import copy
import functools
import itertools
import math
import operator
import random
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betaforge import (
    BranchGraph,
    Cardinality,
    Edge,
    OutsideDomain,
    Region,
    StepLimit,
    SwitchHit,
    UniqueTail,
    PeriodicWord,
    RunOutcome,
    apply_digits,
    bfs_expansions,
    build_branch_graph,
    classify,
    count_expansions,
    define_field,
    deterministic_run,
    domain_bounds,
    enumerate_expansions,
    eval_word,
    golden_field,
    parse_word,
    q2_field,
    qf_field,
    reflect_point,
    reflect_word,
    region,
    t1,
    viable_prefix_counts,
)
from betaforge import branching, numberfield
from betaforge.cli import main
from betaforge.branching import LIMIT, NODE, TERMINAL, Count, _at_most
from betaforge.numberfield import AlgebraicReal
from conftest import _cardinality as reference_cardinality, enclosure, level_oracle, recount


def plastic_field():
    # cubic base: x^3 = x + 1, root ~ 1.3247
    return define_field((-1, -1, 0, 1), (Fraction(13, 10), Fraction(14, 10)))


def family_member(field, k):
    """A point with exactly k expansions in the companion quartic base."""
    word = PeriodicWord((1,) + (0, 0, 0, 0) * (k - 1) + (0,), (1, 0))
    return eval_word(word, field)


# ---------------------------------------------------------------------------
# deterministic_run


def test_run_from_one_hits_switch():
    F = q2_field()
    out = deterministic_run(F.one)
    assert out.segment == (1,)
    assert isinstance(out.end, SwitchHit)
    assert out.end.value == F.q - 1
    assert region(out.end.value) is Region.SWITCH


def test_run_from_zero_closes_zero_tail():
    F = q2_field()
    out = deterministic_run(F.zero)
    assert out.segment == ()
    assert isinstance(out.end, UniqueTail)
    assert out.end.tail_word == parse_word("(0)*")
    assert out.end.cycle == (F.zero,)


def test_run_from_domain_top_closes_one_tail():
    F = q2_field()
    _, _, upper = domain_bounds(F)
    out = deterministic_run(upper)
    assert out.segment == ()
    assert isinstance(out.end, UniqueTail)
    assert out.end.tail_word == parse_word("(1)*")


def test_run_detects_two_cycle():
    F = q2_field()
    x = eval_word(parse_word("(10)*"), F)
    out = deterministic_run(x)
    assert out.segment == ()
    assert isinstance(out.end, UniqueTail)
    assert out.end.tail_word == parse_word("(10)*")
    assert len(out.end.cycle) == 2
    assert out.end.cycle[0] == x
    assert out.end.cycle[1] == t1(x)


def test_run_step_limit():
    F = q2_field()
    out = deterministic_run(F.one, max_steps=1)
    assert out.segment == (1,)
    assert isinstance(out.end, StepLimit)
    assert out.end.steps == 1


def test_run_400_steps_deep(monkeypatch):
    # past about 300 steps the numerators outgrow the filter's 128 bits, so
    # the late steps take the filter's sums at a higher precision; none of
    # them evaluates a polynomial over the isolating interval
    F = q2_field()
    calls = []
    over = numberfield._poly_over_interval
    monkeypatch.setattr(numberfield, "_poly_over_interval",
                        lambda *args: calls.append(args) or over(*args))
    x = eval_word(parse_word("0" * 400 + "1(0)*"), F)
    out = deterministic_run(x, max_steps=1000)
    assert calls == []
    assert out.segment == (0,) * 400
    assert isinstance(out.end, SwitchHit)
    assert out.end.value == 1 / F.q
    assert out.orbit[-1] == apply_digits(x, out.segment)


@pytest.mark.parametrize("text, plus_one, max_steps, end_type", [
    ("00(01)*", True, 500, SwitchHit),     # two forced steps, then a switch point
    ("01(10)*", False, 500, SwitchHit),    # starts at a switch point
    ("000(01)*", True, 500, UniqueTail),   # forced steps, then a closed cycle
    ("(10)*", False, 500, UniqueTail),     # already on the cycle
    ("(0)*", False, 500, UniqueTail),
    ("00(01)*", True, 1, StepLimit),
    ("00(01)*", True, 2, StepLimit),
])
def test_run_returns_its_orbit(text, plus_one, max_steps, end_type):
    F = q2_field()
    x = eval_word(parse_word(text), F) + (1 if plus_one else 0)
    out = deterministic_run(x, max_steps=max_steps)
    assert isinstance(out.end, end_type)
    assert out.orbit[0] == x
    assert len(out.orbit) == len(out.segment) + 1
    for v, d, w in zip(out.orbit, out.segment, out.orbit[1:]):
        assert w == v.times_q_minus(d)
    assert out.orbit[-1] == apply_digits(x, out.segment)
    if isinstance(out.end, SwitchHit):
        assert out.orbit[-1] == out.end.value
    elif isinstance(out.end, UniqueTail):
        assert out.orbit[-1] == out.end.cycle[0]
    else:
        assert len(out.segment) == max_steps


@pytest.mark.parametrize("entry", [
    region,
    deterministic_run,
    build_branch_graph,
    lambda x: viable_prefix_counts(x, 3),
])
def test_base_outside_1_2_is_rejected(entry):
    F = define_field((-5, 0, 1), (2, 3))  # q = sqrt 5
    x = eval_word(parse_word("1(0)*"), F)  # evaluation takes any base
    assert x == F.q / 5
    with pytest.raises(ValueError, match=r"outside \(1, 2\)"):
        entry(x)


@pytest.mark.parametrize("offset", [-1, 1])
def test_run_outside_domain_raises(offset):
    F = q2_field()
    _, _, upper = domain_bounds(F)
    x = -F.one if offset < 0 else upper + 1
    with pytest.raises(OutsideDomain):
        deterministic_run(x)


# ---------------------------------------------------------------------------
# branch graphs built from real points


def test_single_switch_point_two_expansions():
    F = q2_field()
    x = eval_word(parse_word("01(10)*"), F)
    g = build_branch_graph(x)
    assert g.root_kind == NODE
    assert g.root_segment == ()
    assert g.nodes == {0: x}
    assert not g.truncated
    assert all(e.kind in (NODE, TERMINAL) for out in g.edges.values() for e in out.values())
    out = g.edges[0]
    assert set(out) == {0, 1}
    assert all(e.kind == TERMINAL for e in out.values())
    assert classify(g) == Cardinality.finite(2)


def test_terminal_root_counts_one():
    F = q2_field()
    _, _, upper = domain_bounds(F)
    g = build_branch_graph(upper)
    assert g.root_kind == TERMINAL
    assert g.nodes == {}
    assert list(g.terminals.values()) == [parse_word("(1)*")]
    assert classify(g) == Cardinality.finite(1)


def test_golden_cycle_is_countably_infinite():
    F = golden_field()
    lo, hi, _ = domain_bounds(F)
    x = eval_word(parse_word("(01)*"), F)
    assert x == lo  # the cycle enters at the bottom of the branching region
    g = build_branch_graph(x)
    assert set(g.nodes.values()) == {lo, hi}
    assert classify(g) == Cardinality.aleph0()
    # the point 1 = q^2 - q sits at the top of the region and joins the cycle
    assert count_expansions(F.one) == Cardinality.aleph0()


def test_cubic_base_one_has_continuum_expansions():
    F = plastic_field()
    g = build_branch_graph(F.one)
    assert not g.truncated
    assert len(g.nodes) == 6
    assert classify(g) == Cardinality.continuum()


def test_family_member_three_expansions():
    F = qf_field()
    x = family_member(F, 3)
    g = build_branch_graph(x)
    assert classify(g) == Cardinality.finite(3)
    words = enumerate_expansions(x)
    assert [str(w) for w in words] == [
        "011001(10)*",
        "011010000(01)*",
        "100000000(01)*",
    ]
    assert all(eval_word(w, F) == x for w in words)


def test_truncation_reports_lower_bound():
    F = q2_field()
    x = eval_word(parse_word("1(0)*"), F)
    g = build_branch_graph(x, max_steps=250, max_nodes=4)
    assert g.truncated and g.limit == "max_nodes"
    got = classify(g)
    assert got.kind == "lower_bound"
    assert got.count >= 1
    assert str(got) == f"LowerBound({got.count})"


def test_step_limited_root_is_lower_bound_one():
    F = q2_field()
    g = build_branch_graph(F.one, max_steps=1)
    assert g.root_kind == LIMIT
    assert g.truncated and g.limit == "max_steps"
    assert classify(g) == Cardinality.lower_bound(1)


def test_lower_bound_names_its_limit():
    F = q2_field()
    x = eval_word(parse_word("1(0)*"), F)
    by_nodes = count_expansions(x, max_nodes=4)
    assert by_nodes.kind == "lower_bound" and by_nodes.limit == "max_nodes"
    by_steps = count_expansions(F.one, max_steps=1)
    assert by_steps == Cardinality.lower_bound(1) and by_steps.limit == "max_steps"
    # the limit takes no part in equality, hashing or the text
    assert by_nodes == Cardinality.lower_bound(by_nodes.count)
    assert hash(by_nodes) == hash(Cardinality.lower_bound(by_nodes.count))
    assert str(by_nodes) == f"LowerBound({by_nodes.count})"
    assert count_expansions(eval_word(parse_word("01(10)*"), F)).limit is None


# ---------------------------------------------------------------------------
# classification of edge lists by the component pass


def _local(kind, target):
    """A record's local target for an edge that leads to (kind, target)."""
    return target if kind is NODE else ~target if kind is TERMINAL else None


def _classified(root_kind, root_target, edges, limit=None):
    """The count of ``_answer`` for the graph whose node v (ids 0..n-1) has
    the out-edges ``edges[v]``, truncated by ``limit`` or complete, held to
    the dict reference's count on the same graph as eager tables."""
    targets = [_local(e.kind, e.target) for out in edges for e in out]
    assert branching._target(_local(root_kind, root_target)) == (root_kind, root_target)
    got = branching._answer(_local(root_kind, root_target), targets, limit)[0]
    eager = SimpleNamespace(root_kind=root_kind, root_target=root_target,
                            edges={nid: {e.digit: e for e in out} for nid, out in enumerate(edges)},
                            truncated=limit is not None, limit=limit)
    want = reference_cardinality(eager)
    assert (got, got.limit) == (want, want.limit)
    return got


def _edge(digit, kind, target):
    return Edge(digit, (), kind, target)


def test_classify_terminal_root():
    assert _classified(TERMINAL, 0, []) == Cardinality.finite(1)


def test_classify_limit_root():
    assert _classified(LIMIT, None, [], "max_steps") == Cardinality.lower_bound(1)


def test_classify_truncated_floor_counts_unresolved_edges():
    edges = [(_edge(0, LIMIT, None), _edge(1, LIMIT, None))]
    assert _classified(NODE, 0, edges, "max_nodes") == Cardinality.lower_bound(2)


def test_classify_truncated_floor_counts_closed_component_once():
    # node 1 loops on itself twice and never exits: its points still have
    # an expansion, so it adds one to the floor, not zero
    edges = [
        (_edge(0, LIMIT, None), _edge(1, NODE, 1)),
        (_edge(0, NODE, 1), _edge(1, NODE, 1)),
    ]
    assert _classified(NODE, 0, edges, "max_steps") == Cardinality.lower_bound(2)


def test_classify_two_cycle_is_aleph0():
    edges = [
        (_edge(0, NODE, 1), _edge(1, TERMINAL, 0)),
        (_edge(0, TERMINAL, 1), _edge(1, NODE, 0)),
    ]
    assert _classified(NODE, 0, edges) == Cardinality.aleph0()


def test_classify_double_self_loop_is_continuum():
    edges = [(_edge(0, NODE, 0), _edge(1, NODE, 0))]
    assert _classified(NODE, 0, edges) == Cardinality.continuum()


def test_classify_dag_counts_paths():
    edges = [
        (_edge(0, NODE, 1), _edge(1, NODE, 2)),
        (_edge(0, TERMINAL, 0), _edge(1, TERMINAL, 0)),
        (_edge(0, TERMINAL, 0), _edge(1, NODE, 1)),
    ]
    assert _classified(NODE, 0, edges) == Cardinality.finite(5)


@st.composite
def _random_graphs(draw):
    """A graph of at most 10 nodes, with ids 0..n-1: each out-edge leads to
    any node, the one terminal or a limit; truncated by either limit or not;
    any root kind."""
    ids = range(draw(st.integers(0, 10)))
    kinds = st.sampled_from((NODE, TERMINAL, LIMIT) if ids else (TERMINAL, LIMIT))
    targets = {NODE: st.sampled_from(ids), TERMINAL: st.just(0), LIMIT: st.none()}

    def edge(digit):
        kind = draw(kinds)
        return _edge(digit, kind, draw(targets[kind]))

    edges = [(edge(0), edge(1)) for _ in ids]
    root_kind = draw(kinds)
    return (root_kind, draw(targets[root_kind]), edges,
            draw(st.sampled_from((None, "max_steps", "max_nodes"))))


@settings(max_examples=400, deadline=None)
@given(_random_graphs())
def test_classify_matches_the_dict_reference(graph):
    _classified(*graph)


@pytest.mark.parametrize("cut, want", [
    (None, Cardinality.finite(5)),
    (LIMIT, Cardinality.lower_bound(5)),
    (NODE, Cardinality.continuum()),
])
def test_classify_cut_dag(cut, want):
    # the DAG of test_classify_dag_counts_paths, then with one terminal edge
    # cut by a limit or led back to the root (one SCC of four inner edges)
    last = {None: _edge(1, TERMINAL, 0), LIMIT: _edge(1, LIMIT, None),
            NODE: _edge(1, NODE, 0)}[cut]
    edges = [
        (_edge(0, NODE, 1), _edge(1, NODE, 2)),
        (_edge(0, TERMINAL, 0), last),
        (_edge(0, TERMINAL, 0), _edge(1, NODE, 1)),
    ]
    assert _classified(NODE, 0, edges, "max_steps" if cut is LIMIT else None) == want


def test_edge_is_an_immutable_named_tuple():
    e = Edge(1, (0, 1), NODE, 3)
    assert Edge._fields == ("digit", "segment", "kind", "target")
    assert (e.digit, e.segment, e.kind, e.target) == (1, (0, 1), NODE, 3)
    with pytest.raises(AttributeError):
        e.target = 4
    # equal and hashed like the tuple of its fields, as the dataclass it was
    assert e == Edge(1, (0, 1), NODE, 3) == (1, (0, 1), NODE, 3)
    assert hash(e) == hash(Edge(1, (0, 1), NODE, 3)) == hash((1, (0, 1), NODE, 3))
    assert e != Edge(0, (0, 1), NODE, 3) and e != Edge(1, (0, 1), NODE, None)
    assert len({e, Edge(1, (0, 1), NODE, 3), Edge(1, (0, 1), TERMINAL, 3)}) == 2


# ---------------------------------------------------------------------------
# cardinality value type


def test_cardinality_rendering_and_equality():
    assert str(Cardinality.finite(3)) == "Finite(3)"
    assert str(Cardinality.aleph0()) == "CountablyInfinite"
    assert str(Cardinality.continuum()) == "Continuum"
    assert str(Cardinality.lower_bound(7)) == "LowerBound(7)"
    assert Cardinality.finite(2) == Cardinality.finite(2)
    assert Cardinality.finite(2) != Cardinality.finite(3)
    assert Cardinality.aleph0() == Cardinality.aleph0()
    assert Cardinality.aleph0() != Cardinality.continuum()


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_infinite_point_first_four():
    F = qf_field()
    x = eval_word(parse_word("1(0)*"), F)
    words = enumerate_expansions(x, max_count=4, max_steps=250, max_nodes=64)
    assert [str(w) for w in words] == [
        "010(1)*",
        "0110010(1)*",
        "01101(0)*",
        "1(0)*",
    ]


def test_bfs_expansions_completeness_flag():
    F = qf_field()
    finite_words, finite_complete = bfs_expansions(family_member(F, 3))
    assert finite_complete
    assert len(finite_words) == 3
    # breadth-first discovery: fewest branch decisions first
    assert str(finite_words[0]) == "100000000(01)*"

    x = eval_word(parse_word("1(0)*"), F)
    inf_words, inf_complete = bfs_expansions(
        x, max_count=6, max_steps=250, max_nodes=64
    )
    assert not inf_complete
    assert len(inf_words) == 6
    assert all(eval_word(w, F) == x for w in inf_words)


def _full_frontier_discover(graph, max_count, max_depth):
    """Reference enumeration: the breadth-first walk that keeps every
    frontier path, dead or alive (exponential work, same answers)."""
    words = []
    complete = not graph.truncated
    if graph.root_kind == LIMIT:
        return words, False
    queue = deque([(graph.root_kind, graph.root_target, graph.root_segment, 0)])
    while queue:
        kind, target, prefix, depth = queue.popleft()
        if len(words) >= max_count:
            complete = False
            break
        if kind == TERMINAL:
            tail = graph.terminals[target]
            words.append(PeriodicWord(prefix + tail.preperiod, tail.period))
            continue
        if depth >= max_depth:
            complete = False
            continue
        for digit in (0, 1):
            e = graph.edges[target][digit]
            if e.kind in (NODE, TERMINAL):
                queue.append((e.kind, e.target, prefix + (digit,) + e.segment, depth + 1))
            else:
                complete = False
    return words, complete


def _canonical_words(max_pre, max_per):
    """Every canonical word (primitive period; a preperiod, if any, whose
    last digit differs from the period's last) up to the given lengths."""
    for per_len in range(1, max_per + 1):
        for per in itertools.product((0, 1), repeat=per_len):
            if any(per_len % k == 0 and per == per[:k] * (per_len // k)
                   for k in range(1, per_len)):
                continue
            yield PeriodicWord((), per)
            for pre_len in range(1, max_pre + 1):
                for body in itertools.product((0, 1), repeat=pre_len - 1):
                    yield PeriodicWord(body + (1 - per[-1],), per)


_ACCEPTANCE_CAPS = {"max_steps": 250, "max_nodes": 64}


@pytest.mark.parametrize("field_factory, caps", [
    (qf_field, {}), (golden_field, {}), (q2_field, _ACCEPTANCE_CAPS),
])
def test_enumeration_matches_full_frontier_reference(field_factory, caps):
    F = field_factory()
    words = list(_canonical_words(4, 3))
    assert len(words) == 160
    for word in words:
        x = eval_word(word, F)
        graph = build_branch_graph(x, **caps)
        for max_depth, max_count in itertools.product((6, 12), (3, 64)):
            expected = _full_frontier_discover(graph, max_count, max_depth)
            got = bfs_expansions(x, max_count=max_count, max_depth=max_depth, **caps)
            assert got == expected, (str(word), max_depth, max_count)


def test_point_with_no_reachable_tail_lists_nothing_at_once():
    # (010)* in qf has continuum many expansions, none eventually periodic
    # through a unique tail; the full frontier would hold 2^256 paths
    F = qf_field()
    x = eval_word(parse_word("(010)*"), F)
    assert count_expansions(x) == Cardinality.continuum()
    assert bfs_expansions(x) == ([], False)
    assert enumerate_expansions(x) == []


def test_enumerated_words_evaluate_back():
    F = q2_field()
    x = eval_word(parse_word("01(10)*"), F)
    words = enumerate_expansions(x)
    assert len(words) == 2
    assert words == sorted(words)
    assert all(eval_word(w, F) == x for w in words)


# ---------------------------------------------------------------------------
# prefix-count oracle


def test_prefix_counts_of_zero_are_all_one():
    F = q2_field()
    assert viable_prefix_counts(F.zero, 10) == [1] * 10


def test_prefix_counts_match_two_expansions():
    F = q2_field()
    x = eval_word(parse_word("01(10)*"), F)
    counts = viable_prefix_counts(x, 12)
    assert counts[0] == 2  # the two expansions already differ at digit one
    assert counts == [2] * 12


def test_prefix_counts_outside_domain():
    F = q2_field()
    with pytest.raises(OutsideDomain):
        viable_prefix_counts(-F.one, 4)


def test_prefix_count_depth_validation():
    F = q2_field()
    with pytest.raises(ValueError):
        viable_prefix_counts(F.zero, 0)


def test_prefix_counts_stop_at_a_repeated_level():
    # the two expansions' remainders are periodic, so a level repeats within
    # a few levels and the remaining depth costs no kernel step; the steps
    # are counted on the compiled step of a field of the test's own
    F = define_field(*_KERNEL_FIELDS["q2"])
    x = eval_word(parse_word("01(10)*"), F)
    steps = []
    step = F._step
    F._step = lambda *args: steps.append(1) or step(*args)
    assert viable_prefix_counts(x, 10_000) == [2] * 10_000
    assert 0 < len(steps) < 100


@pytest.mark.parametrize("text", ["(011)*", "1001(100)*"])
def test_prefix_counts_keep_growing_without_a_repeat(text):
    # continuum many expansions: the counts plateau for two levels at a
    # time, then grow, and no level repeats
    x = eval_word(parse_word(text), golden_field())
    assert count_expansions(x) == Cardinality.continuum()
    counts = viable_prefix_counts(x, 14)
    assert counts == _ref_prefix_counts(x, 14)
    assert counts[-1] > 2 * counts[6]


def test_prefix_counts_cross_check_enumerator():
    F = qf_field()
    x = family_member(F, 2)
    words = enumerate_expansions(x)
    assert len(words) == 2
    counts = viable_prefix_counts(x, 20)
    for n in range(1, 21):
        prefixes = {w.digits(n) for w in words}
        assert counts[n - 1] == len(prefixes)


# ---------------------------------------------------------------------------
# reflection symmetry


@pytest.mark.parametrize("text", ["01(10)*", "0111(10)*", "1(10)*", "(0)*"])
def test_reflection_preserves_count(text):
    F = q2_field()
    word = parse_word(text)
    x = eval_word(word, F)
    y = reflect_point(x)
    assert y == eval_word(reflect_word(word), F)
    assert count_expansions(x) == count_expansions(y)


def test_reflection_preserves_count_in_companion_base():
    F = qf_field()
    x = family_member(F, 3)
    assert count_expansions(reflect_point(x)) == Cardinality.finite(3)


# ---------------------------------------------------------------------------
# shape of unique tails (property)

_words = st.builds(
    PeriodicWord,
    st.lists(st.integers(0, 1), max_size=6).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=30, deadline=None)
@given(_words, st.sampled_from(["q2", "qf"]))
def test_unique_tails_are_simple_cycles(word, base):
    F = q2_field() if base == "q2" else qf_field()
    out = deterministic_run(eval_word(word, F), max_steps=250)
    if not isinstance(out.end, UniqueTail):
        return
    tail = out.end.tail_word
    assert tail.preperiod == ()
    assert tail.period in {(0,), (1,), (1, 0), (0, 1)}


# ---------------------------------------------------------------------------
# the orbit kernel against the element-based loops it replaced
#
# Test-only copies of the loops that stepped AlgebraicReal values and
# compared them with the domain bounds one element at a time.  The graph
# copy also records the first limit that truncated it.


def _ref_region(x):
    switch_lo, switch_hi, upper = domain_bounds(x.field)
    if x.sign() < 0:
        return Region.OUTSIDE
    if x < switch_lo:
        return Region.LOW
    if x <= switch_hi:
        return Region.SWITCH
    if x <= upper:
        return Region.HIGH
    return Region.OUTSIDE


_TIE_FIELDS = {
    "q2": q2_field,
    "qf": qf_field,
    "golden": golden_field,
    # x^5 - x^3 - x^2 - x - 1, ~1.534
    "x5-x3-x2-x-1": lambda: define_field((-1, -1, -1, -1, 0, 1), (Fraction(3, 2), Fraction(31, 20))),
}


def _counting_subtractions(monkeypatch):
    calls = []
    sub = AlgebraicReal.__sub__

    def counted(self, other):
        calls.append(other)
        return sub(self, other)

    monkeypatch.setattr(AlgebraicReal, "__sub__", counted)
    return calls


@pytest.mark.parametrize("name", list(_TIE_FIELDS))
def test_a_domain_bound_rebuilt_by_another_route_ties_without_subtracting(name, monkeypatch):
    F = _TIE_FIELDS[name]()
    bounds = domain_bounds(F)
    lo, top = F.one / F.q, F.one / (F.q - 1)
    # each bound's own lattice form, reached by another route: qf's
    # countably-infinite point 1(0)* is 1/q, and golden's 1 is 1/(q(q-1))
    rebuilt = ([lo, eval_word(parse_word("1(0)*"), F)],
               [lo * top, *([F.one] if name == "golden" else [])],
               [top, eval_word(parse_word("(1)*"), F)])
    calls = _counting_subtractions(monkeypatch)
    for bound, others, expected in zip(bounds, rebuilt, (Region.SWITCH, Region.SWITCH, Region.HIGH)):
        for x in others:
            assert x is not bound and x == bound
            assert numberfield.compare(x, bound) == 0 and numberfield.compare(bound, x) == 0
            assert region(x) is _ref_region(x) is expected
    assert calls == []


def test_an_undecided_pair_of_distinct_forms_is_ordered_by_subtracting(monkeypatch):
    # y / 3 and y / 5 share their numerators over different denominators, and
    # both lie far below what the filter's 128 bits can tell from 0
    y = q2_field().q ** -200
    a, b = y / 3, y / 5
    assert a.num == b.num and a.den != b.den
    (s, e), (t, u) = a._scaled(), b._scaled()
    assert abs(b.den * s - a.den * t) <= b.den * e + a.den * u
    calls = _counting_subtractions(monkeypatch)
    assert numberfield.compare(a, b) == 1 and numberfield.compare(b, a) == -1
    assert b < a and not a <= b
    assert len(calls) == 4


def _ref_run(x, max_steps):
    reg = _ref_region(x)
    if reg is Region.OUTSIDE:
        raise OutsideDomain(f"{x} is outside [0, 1/(q-1)]")
    seen = {}
    digits = []
    v = x
    for _ in range(max_steps):
        if reg is Region.SWITCH:
            return RunOutcome(tuple(digits), SwitchHit(v), (*seen, v))
        at = seen.get(v)
        if at is not None:
            values = tuple(seen)
            return RunOutcome(
                tuple(digits[:at]),
                UniqueTail(values[at:], PeriodicWord((), tuple(digits[at:]))),
                values[:at + 1],
            )
        seen[v] = len(seen)
        digit = 0 if reg is Region.LOW else 1
        digits.append(digit)
        v = v.times_q_minus(digit)
        reg = _ref_region(v)
        if reg is Region.OUTSIDE:
            raise OutsideDomain(f"orbit left the domain at {v}")
    return RunOutcome(tuple(digits), StepLimit(max_steps), (*seen, v))


def _ref_graph(x, max_steps, max_nodes):
    node_ids, terminal_ids, queue = {}, {}, deque()
    run0 = _ref_run(x, max_steps)
    graph = SimpleNamespace(root_segment=run0.segment, root_kind="", root_target=None,
                            nodes={}, edges={}, terminals={}, truncated=False, limit=None)

    def truncate(limit):
        if not graph.truncated:
            graph.truncated, graph.limit = True, limit

    def resolve(outcome):
        if isinstance(outcome.end, SwitchHit):
            v = outcome.end.value
            if v not in node_ids:
                if len(node_ids) >= max_nodes:
                    truncate("max_nodes")
                    return LIMIT, None
                node_ids[v] = len(node_ids)
                graph.nodes[node_ids[v]] = v
                queue.append(node_ids[v])
            return NODE, node_ids[v]
        if isinstance(outcome.end, UniqueTail):
            word = outcome.end.tail_word
            if word not in terminal_ids:
                terminal_ids[word] = len(terminal_ids)
                graph.terminals[terminal_ids[word]] = word
            return TERMINAL, terminal_ids[word]
        truncate("max_steps")
        return LIMIT, None

    graph.root_kind, graph.root_target = resolve(run0)
    while queue:
        nid = queue.popleft()
        v = graph.nodes[nid]
        graph.edges[nid] = {}
        for digit in (0, 1):
            outcome = _ref_run(v.times_q_minus(digit), max_steps)
            graph.edges[nid][digit] = Edge(digit, outcome.segment, *resolve(outcome))
    return graph


def _ref_prefix_counts(x, max_depth):
    _, _, upper = domain_bounds(x.field)
    if x.sign() < 0 or x > upper:
        raise OutsideDomain(f"{x} is outside [0, 1/(q-1)]")
    level, counts = {x: 1}, []
    for _ in range(max_depth):
        nxt = {}
        for v, mult in level.items():
            for digit in (0, 1):
                r = v.times_q_minus(digit)
                if r.sign() >= 0 and r <= upper:
                    nxt[r] = nxt.get(r, 0) + mult
        level = nxt
        counts.append(sum(level.values()))
    return counts


_PREFIX_DEPTHS = (1, 2, 17, 40, 97)


@pytest.mark.parametrize("field_factory", [q2_field, qf_field, golden_field])
def test_prefix_counts_match_the_full_walk_around_a_repeat(field_factory):
    # Every canonical word with preperiod <= 4 and period <= 3, and x + 1
    # where it lies in the domain.  Depth d of the full walk is its first d
    # counts.  In q2, which is not Pisot, a point whose graph is truncated
    # at the acceptance caps has counts growing like 1.17^n (about 1,000 at
    # depth 40, 10^6 at 97) over as many distinct remainders, which the full
    # walk cannot reach in a test: those starts are checked to depth 17.
    F = field_factory()
    _, _, upper = domain_bounds(F)
    starts = []
    for word in _canonical_words(4, 3):
        x = eval_word(word, F)
        starts += [(str(word), x)] + ([(f"{word} + 1", x + 1)] if x + 1 <= upper else [])
    deep = 0
    for label, x in starts:
        depths = _PREFIX_DEPTHS
        if field_factory is q2_field and build_branch_graph(x, **_ACCEPTANCE_CAPS).truncated:
            depths = depths[:3]
        deep += depths[-1] == 97
        ref = _ref_prefix_counts(x, depths[-1])
        for depth in depths:
            counts = viable_prefix_counts(x, depth)
            assert len(counts) == depth
            assert counts == ref[:depth], (label, depth)
    assert deep >= 28  # in q2, the starts with finitely many expansions


@pytest.mark.parametrize("field_factory", [q2_field, qf_field, golden_field])
def test_prefix_counts_match_the_level_walk_on_every_small_word(field_factory):
    # Every canonical word with preperiod <= 6 and period <= 4, at depths 1,
    # 60 and every sixth depth between, rotated by the word's index, so
    # each depth 1-60 is asked of about 235 words.  In q2 a point whose
    # graph is truncated at the acceptance caps has counts growing like
    # 1.17^n over as many remainders, which the level walk keeps: those
    # are asked to depth 20.
    F = field_factory()
    words = list(_canonical_words(6, 4))
    assert len(words) == 1408
    for i, word in enumerate(words):
        x = eval_word(word, F)
        top = 60
        if field_factory is q2_field and build_branch_graph(x, **_ACCEPTANCE_CAPS).truncated:
            top = 20
        ref = level_oracle(x, top)
        for depth in {1, top, *range(1 + i % 6, top, 6)}:
            assert viable_prefix_counts(x, depth) == ref[:depth], (str(word), depth)


@pytest.mark.parametrize("name, text, case", [
    ("qf", "111111(1110)*", "stretch"),
    ("golden", "111111(1110)*", "stretch"),
    ("q2", "111111(10)*", "cycle"),
    ("qf", "111111(10)*", "cycle"),
    ("qf", "1(0)*", "switch"),
    ("golden", "1(0)*", "switch"),
])
def test_prefix_counts_match_the_level_walk_at_every_depth(name, text, case):
    # a root stretch of nine forced digits, which depths 1-9 end inside; a
    # stretch that closes its cycle after eight, before any switch point,
    # and stops there; and a start in the switch region, where no stretch
    # begins
    F = define_field(*_KERNEL_FIELDS[name])
    x = eval_word(parse_word(text), F)
    out = deterministic_run(x)
    ref = level_oracle(x, 60)
    if case == "stretch":
        assert isinstance(out.end, SwitchHit) and len(out.segment) == 9
        assert ref[:9] == [1] * 9 and ref[9] == 2
    elif case == "cycle":
        assert isinstance(out.end, UniqueTail) and len(out.segment) + len(out.end.cycle) == 8
        assert ref == [1] * 60
        steps = []
        step = F._step
        F._step = lambda *args: steps.append(1) or step(*args)
        assert viable_prefix_counts(x, 60) == ref
        assert len(steps) == 8
        F._step = step
    else:
        assert region(x) is Region.SWITCH and ref[0] == 2
    for depth in range(1, 61):
        assert viable_prefix_counts(x, depth) == ref[:depth], depth


# ---------------------------------------------------------------------------
# the bounded exact count


def _assert_at_most(got, card, k):
    """``_at_most``'s answer ``got`` at k against an answer ``card`` known
    another way: an exact count c <= k is returned as it is, and a count
    known to exceed k (finite, infinite, or a floor above k) as a floor
    above k that names no limit."""
    if card.kind is Count.FINITE and card.count <= k:
        assert got.kind is Count.FINITE and got == card
    elif card.kind is not Count.LOWER_BOUND or card.count > k:
        assert got.kind is Count.LOWER_BOUND and got.count > k and got.limit is None
    else:  # a floor <= k decides nothing; an exact answer must respect it
        assert got.kind is Count.LOWER_BOUND or got.count >= card.count


@pytest.mark.parametrize("name, caps", [
    ("golden", {}), ("qf", {}), ("q2", _ACCEPTANCE_CAPS),
])
def test_at_most_agrees_with_count_expansions_on_every_small_word(wall_time_limit, name, caps):
    # every canonical word with preperiod <= 6 and period <= 4; no decision
    # needs more than 22 levels, so none reaches the cap of 64
    F = define_field(*_KERNEL_FIELDS[name])
    assert len(_MEMO_WORDS) == 1408
    points = [eval_word(word, F) for word in _MEMO_WORDS]
    answers = [count_expansions(x, **caps) for x in points]
    assert {card.kind for card in answers} >= ({Count.FINITE, Count.LOWER_BOUND} if name == "q2"
                                              else {Count.FINITE, Count.CONTINUUM})
    wall_time_limit(10)
    for k in (1, 2, 3, 8):
        for word, x, card in zip(_MEMO_WORDS, points, answers):
            got = _at_most(x, k, 64)
            assert got.limit != "max_levels", (str(word), k)
            _assert_at_most(got, card, k)


@pytest.mark.parametrize("name", ["golden", "qf", "q2"])
def test_at_most_of_the_domain_ends_is_one(name):
    # each is a fixed point of its forced digit: the second level repeats
    # the first
    F = define_field(*_KERNEL_FIELDS[name])
    for x in (F.zero, domain_bounds(F)[2]):
        for k in (1, 2, 8):
            assert _at_most(x, k, 2) == Cardinality.finite(1)
            assert _at_most(x, k, 1).limit == "max_levels"


def test_at_most_from_a_switch_point():
    # 01(10)* in q2 starts in the switch region with two expansions, and
    # 1(0)* in qf, also a switch point, has countably many; each floor is
    # the first prefix count past k
    x = eval_word(parse_word("01(10)*"), define_field(*_KERNEL_FIELDS["q2"]))
    assert region(x) is Region.SWITCH
    assert _at_most(x, 1, 64) == Cardinality.lower_bound(2)
    assert _at_most(x, 2, 64) == Cardinality.finite(2)
    x = eval_word(parse_word("1(0)*"), define_field(*_KERNEL_FIELDS["qf"]))
    assert region(x) is Region.SWITCH
    counts = viable_prefix_counts(x, 64)
    for k in range(1, 9):
        got = _at_most(x, k, 64)
        assert got == Cardinality.lower_bound(next(c for c in counts if c > k)), k
        assert got.limit is None


@pytest.mark.parametrize("name, text, closed", [
    ("qf", "111111(1110)*", None),  # nine forced digits to a switch point
    ("q2", "111111(10)*", 9),  # the stretch closes its cycle after eight
])
def test_at_most_with_the_level_cap_inside_a_forced_stretch(name, text, closed):
    # a cap the stretch reaches before it resolves decides nothing
    x = eval_word(parse_word(text), define_field(*_KERNEL_FIELDS[name]))
    for max_levels in range(1, 9):
        got = _at_most(x, 3, max_levels)
        assert got == Cardinality.lower_bound(1) and got.limit == "max_levels", max_levels
    if closed:
        assert _at_most(x, 3, closed) == Cardinality.finite(1)
    else:
        got = _at_most(x, 3, 10)  # the switch point doubles the count at level 10
        assert got == Cardinality.lower_bound(2) and got.limit == "max_levels"


@pytest.mark.parametrize("k, max_levels", [(0, 10), (-1, 10), (2, 0), (2, -3)])
def test_at_most_refuses_a_bound_or_cap_below_one(k, max_levels):
    with pytest.raises(ValueError, match="k and max_levels must be >= 1"):
        _at_most(q2_field().zero, k, max_levels)


def _kernel_answers(x, caps, depth):
    """Run, graph (its field, start and tables) and prefix counts from the
    kernel; OutsideDomain as a value."""
    try:
        run = deterministic_run(x, max_steps=caps["max_steps"])
        graph = build_branch_graph(x, **caps)
        return (run, (graph.field, graph.start, _graph_form(graph)),
                viable_prefix_counts(x, depth))
    except OutsideDomain as exc:
        return str(exc)


def _reference_answers(x, caps, depth):
    try:
        return (_ref_run(x, caps["max_steps"]),
                (x.field, x, _graph_form(_ref_graph(x, caps["max_steps"], caps["max_nodes"]))),
                _ref_prefix_counts(x, depth))
    except OutsideDomain as exc:
        return str(exc)


# fields of their own, so each test starts from cold memos; sqrt2 and the
# cubic x^3 - x^2 - 2 (q ~ 1.6956) are not units, so reduced denominators
# shrink along their orbits
_KERNEL_FIELDS = {
    "q2": ((-1, -1, -2, 0, 1), (Fraction(17, 10), Fraction(43, 25))),
    "qf": ((-1, 1, -2, 1), (Fraction(17, 10), Fraction(9, 5))),
    "golden": ((-1, -1, 1), (Fraction(3, 2), Fraction(17, 10))),
    "sqrt2": ((-2, 0, 1), (1, 2)),
    "cubic": ((-2, 0, -1, 1), (Fraction(8, 5), Fraction(9, 5))),
}
# non-Pisot graphs grow without bound: acceptance caps for those
_KERNEL_CAPS = {
    name: {"max_steps": 250, "max_nodes": 64} if name in ("q2", "sqrt2", "cubic")
    else {"max_steps": branching.DEFAULT_MAX_STEPS, "max_nodes": branching.DEFAULT_MAX_NODES}
    for name in _KERNEL_FIELDS
}


@pytest.mark.parametrize("name", sorted(_KERNEL_FIELDS))
def test_kernel_matches_element_loops_on_canonical_words(name):
    F = define_field(*_KERNEL_FIELDS[name])
    for word in _canonical_words(4, 3):
        x = eval_word(word, F)
        got = _kernel_answers(x, _KERNEL_CAPS[name], 12)
        assert got == _reference_answers(x, _KERNEL_CAPS[name], 12), str(word)


def test_kernel_keys_values_over_the_start_denominator_in_non_unit_bases():
    # the reduced denominator of q*x - d can drop below x's
    F = define_field(*_KERNEL_FIELDS["cubic"])
    shrinks = 0
    for word in _canonical_words(4, 3):
        x = eval_word(word, F)
        out = deterministic_run(x, max_steps=250)
        shrinks += any(v.den < x.den for v in out.orbit)
        assert out == _ref_run(x, 250)
    assert shrinks


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_KERNEL_FIELDS)), st.integers(0, 3), st.integers(1, 200),
       st.integers(-1, 1), st.booleans())
def test_kernel_matches_element_loops_near_domain_bounds(name, which, k, offset, rational):
    # starts within 2^-k of 0, 1/q, 1/(q(q-1)) or 1/(q-1): the bound plus a
    # dyadic, or a dyadic rational next to it.  Past k ~ 128 the integer
    # filter cannot decide against the bound and the exact comparisons do.
    F = define_field(*_KERNEL_FIELDS[name])
    bound = (F.zero, *domain_bounds(F))[which]
    if rational:
        lo, _ = enclosure(bound, Fraction(1, 2 ** (k + 2)))
        x = F.from_rational(Fraction(math.floor(lo * 2**k) + offset, 2**k))
    else:
        x = bound + Fraction(offset, 2**k)
    caps = {"max_steps": 40, "max_nodes": 8}
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_runs(mp)
        got = _kernel_answers(x, caps, 6)
    assert got == _reference_answers(x, caps, 6)
    # each run started from the tracker that _start or _grow seeds it with
    _check_seeds(F, calls)


def test_kernel_falls_back_to_exact_comparisons_below_filter_resolution(monkeypatch):
    F = define_field(*_KERNEL_FIELDS["q2"])
    switch_lo, switch_hi, upper = domain_bounds(F)
    fallbacks = []
    cmp = AlgebraicReal._cmp
    monkeypatch.setattr(AlgebraicReal, "_cmp", lambda a, b: fallbacks.append(b) or cmp(a, b))
    for bound, offset, expected in ((switch_lo, -1, Region.LOW), (switch_lo, 1, Region.SWITCH),
                                    (switch_hi, 1, Region.HIGH), (upper, -1, Region.HIGH)):
        x = bound + Fraction(offset, 2**200)
        fallbacks.clear()
        assert region(x) is expected
        assert bound in fallbacks  # the filter could not decide against this bound
        assert deterministic_run(x, max_steps=3) == _ref_run(x, 3)


# ---------------------------------------------------------------------------
# the compiled step and filter sum against the generic loops they replaced


def _ref_times_q(num, row, low=0):
    """Numerators of q * sum(num[i] q^i) + low: a shift, then q^degree
    replaced by its companion ``row``."""
    top = num[-1]
    return tuple([a + top * m for a, m in zip((low,) + num[:-1], row)])


def _ref_mul(x, y):
    """(num, den) of x * y, reduced, by a schoolbook product whose terms
    q^k, k >= degree, are replaced by rows derived here from the defining
    polynomial: row k - degree holds the numerators of q^k."""
    field, d = x.field, x.field.degree
    rows = [tuple(-c for c in field.min_poly[:-1])]
    for _ in range(d - 2):
        top = rows[-1][-1]
        rows.append(tuple(r + top * m for r, m in zip((0,) + rows[-1][:-1], rows[0])))
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            prod[i + j] += a * b
    res = prod[:d]
    for k, row in enumerate(rows, d):
        res = [r + prod[k] * m for r, m in zip(res, row)]
    den = x.den * y.den
    g = math.gcd(den, *res)
    return tuple(r // g for r in res), den // g


def _ref_filter_sum(num, powers):
    return sum(map(operator.mul, num, powers)), 2 * sum(map(abs, num)) + 2


# coefficients that take every branch of the step's code: 0 and +-1 (no
# multiplication), past 2^64, and anything else
_ROW_COEFFS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(2**64, 2**80),
                        st.integers(-2**80, -2**64), st.integers(-1000, 1000))
_BIG_INTS = st.integers(-2**200, 2**200)


def _ref_product(num, onum, row):
    """Numerators of sum(num[i] q^i) * sum(onum[j] q^j): the schoolbook
    terms, the upper half folded into the lower by Horner steps."""
    d = len(row)
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(num):
        for j, b in enumerate(onum):
            prod[i + j] += a * b
    acc = tuple(prod[d - 1:])
    for k in range(d - 2, -1, -1):
        acc = _ref_times_q(acc, row, prod[k])
    return acc


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROW_COEFFS, min_size=2, max_size=12), st.data())
def test_compiled_step_and_filter_sum_match_the_generic_loops(row, data):
    num = tuple(data.draw(st.lists(_BIG_INTS, min_size=len(row), max_size=len(row))))
    low = data.draw(_BIG_INTS)
    step = numberfield._compile_step(row)
    assert step(num, low) == _ref_times_q(num, row, low)
    assert step(num) == _ref_times_q(num, row)
    powers = data.draw(st.lists(_BIG_INTS, min_size=len(row), max_size=len(row)))
    assert numberfield._compile_filter(powers)(num) == _ref_filter_sum(num, powers)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROW_COEFFS, min_size=2, max_size=12), st.data())
def test_compiled_product_matches_the_generic_loops(row, data):
    num, onum = (tuple(data.draw(st.lists(_BIG_INTS, min_size=len(row), max_size=len(row))))
                 for _ in range(2))
    assert numberfield._compile_mul(row)(num, onum) == _ref_product(num, onum, row)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_KERNEL_FIELDS)), st.lists(_BIG_INTS, min_size=4, max_size=4),
       _BIG_INTS)
def test_each_fields_compiled_kernel_matches_the_generic_loops(name, nums, low):
    F = define_field(*_KERNEL_FIELDS[name])
    num = tuple(nums[:F.degree])
    row = tuple(-c for c in F.min_poly[:-1])
    assert F._step(num, low) == _ref_times_q(num, row, low)
    # and q * n + low by the reference product, over denominator 1
    (head, *rest), _ = _ref_mul(F.q, AlgebraicReal(F, num, 1))
    assert F._step(num, low) == (head + low, *rest)
    assert F._filter()(num) == _ref_filter_sum(num, F._scaled_powers())
    assert AlgebraicReal(F, num, 1)._scaled() == _ref_filter_sum(num, F._scaled_powers())


# the kernel's fields, once built, and the process-wide q2, qf and golden
# fields, whose state earlier tests have grown; then x^64 - x - 1
_MUL_FIELDS = [*_KERNEL_FIELDS, "q2_field", "qf_field", "golden_field", "x^64 - x - 1"]


@functools.lru_cache(maxsize=None)
def _mul_field(name):
    if name in _KERNEL_FIELDS:
        return define_field(*_KERNEL_FIELDS[name])
    if name == "x^64 - x - 1":
        return define_field((-1, -1) + (0,) * 62 + (1,), (1, 2))
    return getattr(numberfield, name)()


# numerators with zeros (the product skips them), small ones, and ones
# beyond 2^64
_MUL_INTS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(2**64, 2**130),
                      st.integers(-2**130, -2**64))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_MUL_FIELDS), st.data())
def test_products_match_the_schoolbook_reference(name, data):
    F = _mul_field(name)
    x, y = (numberfield._reduced(F, data.draw(st.lists(_MUL_INTS, min_size=F.degree,
                                                       max_size=F.degree)),
                                 data.draw(st.integers(1, 2**70)))
            for _ in range(2))
    for a, b in ((x, y), (y, x), (x, x)):
        p = a * b
        assert (p.num, p.den) == _ref_mul(a, b)


# small numerators over small denominators: a power's numerators grow with
# its exponent
_POWER_INTS = st.integers(-3, 3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_MUL_FIELDS), st.data())
def test_powers_match_repeated_schoolbook_products(name, data):
    F = _mul_field(name)
    x = numberfield._reduced(F, data.draw(st.lists(_POWER_INTS, min_size=F.degree,
                                                  max_size=F.degree)),
                             data.draw(st.integers(1, 6)))
    if x.is_zero():
        assert x**0 == 1 and x**3 == 0
        return
    # x^n for n in -4 ... 20, each one more schoolbook product on the last:
    # by x upward from 1, and by 1/x downward
    for base, ns in ((x, range(0, 21)), (x.inverse(), range(0, -5, -1))):
        ref = (F.one.num, F.one.den)
        for n in ns:
            p = x**n
            assert (p.num, p.den) == ref, n
            ref = _ref_mul(AlgebraicReal(F, *ref), base)
    assert x**0 == 1
    m, n = data.draw(st.integers(-4, 8)), data.draw(st.integers(-4, 8))
    assert x**m * x**n == x**(m + n)
    assert (x**m)**n == x**(m * n)


def test_compiled_kernel_at_a_degree_past_the_compilers_nesting_limit():
    # a chain of 3000 additions would exhaust the compiler's recursion limit;
    # the sums are grouped as balanced trees
    rng = random.Random(3000)
    row = [rng.randint(-3, 3) for _ in range(3000)]
    num = tuple(rng.randint(-2**70, 2**70) for _ in row)
    assert numberfield._compile_step(row)(num, 5) == _ref_times_q(num, row, 5)
    assert numberfield._compile_filter(row)(num) == _ref_filter_sum(num, row)


# ---------------------------------------------------------------------------
# the field's graph: each switch point's forced runs, kept per field by id
#
# The shared fields' memos are process-wide, so every test here builds its
# fields fresh: a cold field has an empty memo.  "cubic" (x^3 - x^2 - 2) is
# not a unit, so the memo's reduced denominators differ from the graph's.

_MEMO_NAMES = ("q2", "qf", "golden", "cubic")
_MEMO_WORDS = tuple(_canonical_words(6, 4))


def _graph_form(graph):
    """Everything a graph holds, comparable across fields."""
    return (graph.root_segment, graph.root_kind, graph.root_target,
            {nid: (v.num, v.den) for nid, v in graph.nodes.items()},
            graph.edges, graph.terminals, graph.truncated, graph.limit)


def _cold_form(name, word, caps):
    x = eval_word(word, define_field(*_KERNEL_FIELDS[name]))
    return _graph_form(build_branch_graph(x, **caps))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_MEMO_NAMES), st.lists(st.sampled_from(_MEMO_WORDS), min_size=1,
                                              max_size=6), st.booleans())
def test_memo_graphs_equal_cold_builds(name, words, defaults):
    caps = _KERNEL_CAPS[name] if defaults else _ACCEPTANCE_CAPS
    warm = define_field(*_KERNEL_FIELDS[name])
    for word in words + words:  # the second pass finds every graph stored
        x = eval_word(word, warm)
        got, twin = build_branch_graph(x, **caps), build_branch_graph(x, **caps)
        cold = _cold_form(name, word, caps)
        assert _graph_form(got) == cold, str(word)
        for table in (got.nodes, got.terminals, *got.edges.values(), got.edges):
            table.clear()  # a later graph that changes with it was aliased to this one
        # two views of one record share no dict, and twin reads its tables only now
        assert _graph_form(twin) == cold, str(word)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_MEMO_NAMES), st.lists(st.sampled_from(_MEMO_WORDS), min_size=1,
                                              max_size=4))
def test_memo_runs_stored_under_a_larger_step_budget(name, words):
    # a stored run of length L stands for a run only when L < max_steps
    warm = define_field(*_KERNEL_FIELDS[name])
    for word in words:
        build_branch_graph(eval_word(word, warm), max_steps=10_000, max_nodes=64)
    for max_steps in (1, 2, 5, 20):
        caps = {"max_steps": max_steps, "max_nodes": 64}
        for word in words:
            got = build_branch_graph(eval_word(word, warm), **caps)
            assert _graph_form(got) == _cold_form(name, word, caps), (str(word), max_steps)


def _counted_runs(monkeypatch):
    """The arguments after the rule of every kernel run (``_run``) from now
    on."""
    calls = []
    run = branching._run
    monkeypatch.setattr(branching, "_run",
                        lambda rule, *args: calls.append(args) or run(rule, *args))
    return calls


def test_warm_memo_runs_only_the_root(monkeypatch):
    F = define_field(*_KERNEL_FIELDS["qf"])
    x = family_member(F, 3)
    calls = _counted_runs(monkeypatch)
    cold = build_branch_graph(x)
    assert cold.nodes and len(calls) == 1 + 2 * len(cold.nodes)
    # a repeated point reads its root run from the root memo
    calls.clear()
    assert _graph_form(build_branch_graph(x)) == _graph_form(cold)
    assert count_expansions(x) == Cardinality.finite(3)
    assert not calls
    # x / q forces one 0 and then runs on from x: a new point whose first
    # switch point is warm runs its root only
    y = x / F.q
    assert count_expansions(y) == Cardinality.finite(3)
    assert len(calls) == 1
    calls.clear()
    assert build_branch_graph(y).root_segment == (0, *cold.root_segment)
    assert not calls


def test_memo_answers_run_only_the_root(monkeypatch):
    # a miss grows the graph from the one root run; a point asked again runs
    # nothing, and a new point with the same first switch point its root only
    nodes = len(build_branch_graph(family_member(define_field(*_KERNEL_FIELDS["qf"]), 3)).nodes)
    calls = _counted_runs(monkeypatch)
    for first in (count_expansions, bfs_expansions):
        F = define_field(*_KERNEL_FIELDS["qf"])
        x = family_member(F, 3)
        calls.clear()
        first(x)
        assert len(calls) == 1 + 2 * nodes, first.__name__
        for call in (count_expansions, bfs_expansions, enumerate_expansions) * 2:
            calls.clear()
            call(x)
            assert not calls, call.__name__
        y = x / F.q
        for runs, call in zip((1, 0, 0), (count_expansions, bfs_expansions, enumerate_expansions)):
            calls.clear()
            call(y)
            assert len(calls) == runs, call.__name__


def _detached(words):
    """A copy of a returned listing, which is then cleared: a later answer
    that changes with it was aliased to this one."""
    copy = list(words)
    words.clear()
    return copy


def _answer_form(job, x, caps):
    """A count or listing, with the limit that equality leaves out."""
    if job == "count":
        card = count_expansions(x, **caps)
        return card, card.limit
    if job == "bfs":
        words, complete = bfs_expansions(x, **caps)
        return _detached(words), complete
    if job == "enumerate":
        return _detached(enumerate_expansions(x, **caps))
    max_count, max_depth = job
    words, complete, limit = branching._listing(x, max_count, max_depth,
                                                caps["max_steps"], caps["max_nodes"])
    return _detached(words), complete, limit


def _cold_answer(name, word, job, caps):
    return _answer_form(job, eval_word(word, define_field(*_KERNEL_FIELDS[name])), caps)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_MEMO_NAMES), st.lists(st.sampled_from(_MEMO_WORDS), min_size=1,
                                              max_size=6), st.randoms(use_true_random=False))
def test_memo_answers_equal_cold_answers(name, words, rnd):
    caps = _KERNEL_CAPS[name]
    warm = define_field(*_KERNEL_FIELDS[name])
    queries = [(word, job) for word in words for job in ("count", "bfs", "enumerate", (5, 8))]
    rnd.shuffle(queries)
    cold = {}
    for word, job in queries + queries:  # the second round finds every answer stored
        if (word, job) not in cold:
            cold[word, job] = _cold_answer(name, word, job, caps)
        got = _answer_form(job, eval_word(word, warm), caps)
        assert got == cold[word, job], (str(word), job)


@pytest.mark.parametrize("name, text", [("q2", "1(0)*"), ("q2", "0001(0)*"), ("qf", "1(0)*"),
                                        ("golden", "0(01)*")])
def test_memo_answers_keep_their_caps_apart(name, text):
    # a root run stands for a run only under a step budget above its length:
    # the stored one of 250 steps must not answer at a budget of that length
    warm = define_field(*_KERNEL_FIELDS[name])
    word = parse_word(text)
    cold = eval_word(word, define_field(*_KERNEL_FIELDS[name]))
    short = len(build_branch_graph(cold).root_segment)
    queries = [(job, {"max_steps": max_steps, "max_nodes": max_nodes})
               for max_steps in (250, short) for max_nodes in (8, 64)
               for job in ("count", (3, 6), (64, 12))]
    for job, caps in queries + queries[::-1]:
        got = _answer_form(job, eval_word(word, warm), caps)
        assert got == _cold_answer(name, word, job, caps), (job, caps)
        if job == "count" and caps["max_steps"] == short:
            assert got == (Cardinality.lower_bound(1), "max_steps")


def _held_cells(field):
    """The nodes and words a field's answer memo holds, one more per record
    and per listing."""
    return sum(len(below.nodes) + 1 + sum(len(words) + 1 for words, _, _ in below.listings.values())
               for below in field._memo.answers.values())


def _is_reduced_form(key):
    """Whether ``key`` is an element's reduced form (den, *num): ints, a
    positive denominator, and no common factor."""
    return (key.__class__ is tuple and all(c.__class__ is int for c in key)
            and key[0] > 0 and math.gcd(*key) == 1)


@pytest.mark.parametrize("name, cap", [("q2", 3), ("qf", 3), ("q2", 500)])
def test_a_full_field_graph_is_replaced(name, cap, monkeypatch):
    # with a small cap the field's graph fills again and again; the next
    # walk replaces the field's whole memo by a fresh one, every graph,
    # count and listing still equals a cold field's, the graph stays within
    # _MEMO_CAP + 2 * max_nodes + 1, and every record names its nodes by
    # reduced form, the graph's own key
    monkeypatch.setattr(branching, "_MEMO_CAP", cap)
    grown = []
    grow = branching._grow
    monkeypatch.setattr(branching, "_grow", lambda *args: grown.append(grow(*args)) or grown[-1])
    caps = _ACCEPTANCE_CAPS if name == "q2" else _KERNEL_CAPS[name]
    bound = cap + 2 * caps["max_nodes"] + 1
    warm = define_field(*_KERNEL_FIELDS[name])
    assert warm._memo is None
    memos, views = [], []  # each memo the field held; each view with its word and memo
    for word in _MEMO_WORDS if cap == 500 else _MEMO_WORDS[:40]:
        cold = define_field(*_KERNEL_FIELDS[name])
        x = eval_word(word, warm)
        for job in ("count", (64, 256), "graph"):
            if job == "graph":
                views.append((word, build_branch_graph(x, **caps), warm._memo))
            else:
                want = _answer_form(job, eval_word(word, cold), caps)
                assert _answer_form(job, x, caps) == want, (str(word), job)
            memo = warm._memo
            assert len(memo.graph) == len(memo.ids) <= bound
            # the answer memo holds at most _MEMO_CAP nodes and words, in
            # records that name switch points of the memo's graph by the key
            # it holds them by, each record under its root's reduced form
            assert memo.cells == _held_cells(warm) <= cap
            assert all(memo.graph[memo.ids[key]][0] is key for below in memo.answers.values()
                       for key in below.nodes)
            assert all(below.root == 0 and below.nodes[0] == s
                       for (s, *_), below in memo.answers.items())
            if not memos or memo is not memos[-1]:
                # a new object, made on the first walk or once the last
                # one's graph was full: it holds this ask's root run and
                # record only
                assert all(memo is not old for old in memos)
                assert not memos or len(memos[-1].graph) >= cap
                assert memo.root[0] in (None, (x.den, *x.num)) and len(memo.answers) <= 1
                memos.append(memo)
    assert all(warm._memo.ids[key] == i for i, (key, *_) in enumerate(warm._memo.graph))
    assert len(memos) > 10 and max(len(memo.graph) for memo in memos) > cap
    assert len(grown) > 100 and all(_is_reduced_form(key) for below in grown for key in below.nodes)
    # a view first read after its memo was replaced answers from its record
    # alone, which names switch points of the graph it was built on
    assert sum(memo is not warm._memo for _, _, memo in views) > 10
    for word, view, memo in views:
        assert all(key in memo.ids for key in view._below.nodes)
        assert _graph_form(view) == _cold_form(name, word, caps), str(word)


@pytest.mark.parametrize("name", ["q2", "qf"])
def test_a_view_first_read_after_its_graph_was_replaced(name, monkeypatch):
    # a view's record names its switch points by reduced form: built before
    # the field replaces its memo and first read after, it equals a cold view
    monkeypatch.setattr(branching, "_MEMO_CAP", 3)
    caps = _ACCEPTANCE_CAPS if name == "q2" else _KERNEL_CAPS[name]
    F = define_field(*_KERNEL_FIELDS[name])
    words = _MEMO_WORDS[::50]
    views, memos = [], []
    for word in words:
        views.append(build_branch_graph(eval_word(word, F), **caps))
        memos.append(F._memo)
    assert len({id(memo) for memo in memos}) > 10
    assert sum(memo is not F._memo for memo in memos) > 10
    for word, view in zip(words, views):
        assert not _built_tables(view)
        assert _graph_form(view) == _cold_form(name, word, caps), str(word)


@pytest.mark.parametrize("cap, passes", [(branching._MEMO_CAP, 1), (0, 3)])
def test_each_grown_record_is_answered_once(cap, passes, monkeypatch):
    # the component pass runs as a record grows: a graph, a count and a
    # listing of one point read the one record the memo keeps, and with no
    # room in the memo each grows and answers its own
    monkeypatch.setattr(branching, "_MEMO_CAP", cap)
    x = family_member(define_field(*_KERNEL_FIELDS["qf"]), 3)
    calls = []
    answer = branching._answer
    monkeypatch.setattr(branching, "_answer", lambda *args: calls.append(args) or answer(*args))
    graph = build_branch_graph(x)
    assert graph._below is not None
    assert classify(graph) == count_expansions(x) == Cardinality.finite(3)
    assert len(bfs_expansions(x)[0]) == 3
    assert len(calls) == passes


@pytest.mark.parametrize("name", ["qf", "q2"])
def test_root_memo_holds_the_last_point_only(name, monkeypatch):
    # 0^k 1(0)* forces k zeros before its first switch point: the memo keeps
    # the root run of the last point asked, however long, and no other, so
    # a count and a listing of one point make one root run between them
    warm = define_field(*_KERNEL_FIELDS[name])
    caps = _KERNEL_CAPS[name]
    words = [parse_word("0" * k + "1(0)*") for k in (0, 30, 200)]
    calls = _counted_runs(monkeypatch)
    for word in words * 2:
        x = eval_word(word, warm)
        roots = []
        for job in ("count", "bfs", "enumerate"):
            cold = _cold_answer(name, word, job, caps)
            calls.clear()
            assert _answer_form(job, x, caps) == cold, str(word)
            roots.append(sum(n == x.num for n, *_ in calls))
            assert warm._memo.root[0] == (x.den, *x.num)
        assert roots == [1, 0, 0], str(word)
        key, (length, segment, _, _) = warm._memo.root
        assert key == (x.den, *x.num)
        assert segment == build_branch_graph(x, **caps).root_segment
        assert length == len(segment) and segment == (0,) * word.preperiod.index(1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_MEMO_NAMES), st.data())
def test_switch_point_keys_are_the_reduced_form(name, data):
    # a run ending at a switch point keys it by the (den, *num) of _reduced,
    # over a kernel denominator D that shares factors with the numerators
    F = define_field(*_KERNEL_FIELDS[name])
    common = data.draw(st.integers(1, 10**6))
    den = common * data.draw(st.integers(1, 10**6))
    num = tuple(common * c for c in data.draw(
        st.lists(st.integers(-10**9, 10**9), min_size=F.degree, max_size=F.degree)))
    rule = F._rule(den)
    assert rule.field is F and rule.den == den
    length, segment, kind, key, x_hat, eps = branching._run(rule, num, Region.SWITCH, 1, {},
                                                            0.0, 1.0)
    v = numberfield._reduced(F, num, den)
    assert (length, segment, kind, key) == (0, (), NODE, (v.den, *v.num))
    assert (x_hat, eps) == (0.0, 1.0)  # a run of no step holds the tracker it started with


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_MEMO_NAMES), st.sampled_from(_MEMO_WORDS))
def test_a_stored_run_is_the_run_under_every_budget_above_its_length(name, word):
    # the memos' reuse rule on the shape they store: a NODE or TERMINAL run
    # of length L is what every budget B > L returns, and a budget B <= L
    # gives a LIMIT of length B over the run's first B digits, ending where
    # they lead
    F = define_field(*_KERNEL_FIELDS[name])
    x = eval_word(word, F)
    build_branch_graph(x, **_KERNEL_CAPS[name])
    memo = F._memo
    key, run = memo.root
    assert key in (None, (x.den, *x.num))
    starts = [] if key is None else [(x, x.num, run)]
    for (den, *num), *runs, _, _ in memo.graph:
        node = AlgebraicReal(F, tuple(num), den)
        # the field's graph names a run's switch point by its id there
        starts += [(node, F._step(node.num, -digit * den),
                    (*run[:3], memo.graph[run[3]][0]) if run[2] is NODE else run)
                   for digit, run in enumerate(runs) if run is not None]
    for point, n, run in starts:
        length, segment, kind, end = run
        assert kind is NODE or kind is TERMINAL
        digits = segment + end if kind is TERMINAL else segment
        assert len(digits) == length
        rule, stepped = F._rule(point.den), [n]
        for digit in digits:
            stepped.append(F._step(stepped[-1], -digit * point.den))
        for budget in [*range(length + 3), 10_000]:
            got = branching._run(rule, n, rule.locate(n), budget, {}, 0.0, 1.0)[:4]
            if budget > length:
                assert got == run
            else:
                assert got == (budget, digits[:budget], LIMIT, stepped[budget])


@pytest.mark.parametrize("name", ["qf", "golden"])
def test_regrown_records_step_only_their_roots(name):
    # with the answer memo cleared, each record grows again from the warm
    # field's graph, which holds every branch run (Pisot graphs at the default
    # caps resolve every run): the kernel steps through the root runs only
    F = define_field(*_KERNEL_FIELDS[name])
    points = list(dict.fromkeys(eval_word(w, F) for w in _MEMO_WORDS[::3]))
    first = [(count_expansions(x), bfs_expansions(x)) for x in points]
    steps, step = [0], F._step

    def counted(*args):
        steps[0] += 1
        return step(*args)

    F._step = counted
    memo = F._memo
    memo.answers.clear()
    memo.cells = 0
    for x, (card, listing) in zip(points, first):
        steps[0] = 0
        assert count_expansions(x) == card, str(x)
        key, run = memo.root
        assert key == (x.den, *x.num) and steps[0] == run[0], str(x)  # the root run's steps
        steps[0] = 0
        assert bfs_expansions(x) == listing, str(x)
        assert steps[0] == 0, str(x)
    assert F._memo is memo and sum(len(below.nodes) for below in memo.answers.values()) > 100


@pytest.mark.parametrize("name", ["qf", "golden"])
def test_budgets_within_stored_runs_step_nothing(name):
    # a stored run of length L answers a budget B <= L as the kernel would,
    # a LIMIT after its first B digits: a point asked again under any budget
    # steps nothing once its root run and every branch run below it are
    # stored (Pisot graphs at the default caps resolve every run), and
    # answers as a cold field does
    F = define_field(*_KERNEL_FIELDS[name])
    steps, step = [0], F._step

    def counted(*args):
        steps[0] += 1
        return step(*args)

    cut_branches = 0
    for word in _MEMO_WORDS[::70]:
        x = eval_word(word, F)
        F._step = step
        count_expansions(x)
        graph = build_branch_graph(x)
        memo = F._memo
        assert memo.root[0] == (x.den, *x.num)
        longest = max([memo.root[1][0]] + [
            run[0] for key in graph._below.nodes for run in memo.graph[memo.ids[key]][1:3]])
        F._step = counted
        for max_steps in range(1, longest + 2):
            caps = {"max_steps": max_steps, "max_nodes": branching.DEFAULT_MAX_NODES}
            for job in ("count", (64, 12)):
                steps[0] = 0
                got = _answer_form(job, x, caps)
                assert steps[0] == 0, (str(word), max_steps, job)
                assert got == _cold_answer(name, word, job, caps), (str(word), max_steps, job)
            view = build_branch_graph(x, **caps)
            cut_branches += view.root_kind is NODE and view.limit == "max_steps"
    assert cut_branches > 10


@pytest.mark.parametrize("name", _MEMO_NAMES)
def test_a_kept_record_keeps_its_limit_segments(name):
    # a LIMIT edge's segment is the record's own: a larger budget that later
    # stores the run of the same branch changes no record already kept
    warm = define_field(*_KERNEL_FIELDS[name])
    short = {"max_steps": 5, "max_nodes": 64}
    kept = 0
    for word in _MEMO_WORDS[::40]:
        x = eval_word(word, warm)
        first = build_branch_graph(x, **short)
        form = _graph_form(first)
        build_branch_graph(x, **_KERNEL_CAPS[name])
        again = build_branch_graph(x, **short)
        kept += first._below.kept and first.limit == "max_steps"
        assert again._below is first._below or not first._below.kept, str(word)
        assert _graph_form(again) == form == _cold_form(name, word, short), str(word)
    assert kept > 5


def test_the_field_graph_holds_each_switch_point_once():
    # after the q2 sweep, every switch point any graph reached is held once,
    # by its reduced form, and the records name nodes by that form, the very
    # key the graph holds (nothing is copied): no record holds a field id
    F = define_field(*_KERNEL_FIELDS["q2"])
    graphs = [build_branch_graph(eval_word(word, F), **_ACCEPTANCE_CAPS) for word in _MEMO_WORDS]
    ids = F._memo.ids
    keys = [entry[0] for entry in F._memo.graph]
    assert len(set(keys)) == len(keys) == len(ids) < branching._MEMO_CAP
    assert all(ids[key] == i for i, key in enumerate(keys))
    for graph in graphs:
        nodes = graph._below.nodes
        assert all(_is_reduced_form(key) and keys[ids[key]] is key for key in nodes)
        assert [(v.den, *v.num) for v in graph.nodes.values()] == list(nodes)
    records = {id(graph._below): graph._below for graph in graphs}.values()
    assert len(records) > 500 and sum(below.kept for below in records) > 200
    for below in records:
        held = (below.targets, *below.segments, *below.terminals)
        assert all(c.__class__ is int and (c in (0, 1) or part is below.targets)
                   for part in held for c in part if c is not None)
        assert len(below.nodes) == len(below.targets) // 2 == len(below.live)


# Pisot bases in (1, 2), each a polynomial (ascending coefficients) and an
# interval isolating its root: the remainder graph of every point of the
# field is finite, so the recount terminates.  They reach degrees 2 to 5 and
# lie both below and above qf.
_RECOUNT_FIELDS = {
    "golden": _KERNEL_FIELDS["golden"],
    "qf": _KERNEL_FIELDS["qf"],
    # x^3 - x^2 - x - 1, ~1.839
    "tribonacci": ((-1, -1, -1, 1), (Fraction(18, 10), Fraction(19, 10))),
    # x^4 - x^3 - x^2 - x - 1, ~1.928
    "tetranacci": ((-1, -1, -1, -1, 1), (Fraction(19, 10), Fraction(195, 100))),
    # x^5 - x^4 - x^3 - x^2 - x - 1, ~1.966
    "pentanacci": ((-1, -1, -1, -1, -1, 1), (Fraction(195, 100), Fraction(198, 100))),
    # x^4 - 2x^3 + x - 1, ~1.867
    "x4-2x3+x-1": ((-1, 1, 0, -2, 1), (Fraction(18, 10), Fraction(19, 10))),
    # x^3 - x^2 - 1, ~1.466
    "x3-x2-1": ((-1, 0, -1, 1), (Fraction(14, 10), Fraction(15, 10))),
    # x^5 - x^3 - 2x^2 - 2x - 1, ~1.722
    "x5-x3-2x2-2x-1": ((-1, -2, -2, -1, 0, 1), (Fraction(17, 10), Fraction(175, 100))),
    # x^5 - x^4 - x^3 - 1, ~1.705
    "x5-x4-x3-1": ((-1, 0, 0, -1, -1, 1), (Fraction(17, 10), Fraction(171, 100))),
    # the plastic number, x^3 - x - 1, ~1.325
    "plastic": ((-1, -1, 0, 1), (Fraction(13, 10), Fraction(14, 10))),
    # x^4 - x^3 - 1, ~1.380
    "x4-x3-1": ((-1, 0, 0, -1, 1), (Fraction(13, 10), Fraction(14, 10))),
}


@pytest.mark.parametrize("name", list(_RECOUNT_FIELDS))
def test_counts_match_the_remainder_recount(name):
    # every canonical word with preperiod <= 6 and period <= 4, counted by
    # the branch graph and recounted on the remainder graph
    F = define_field(*_RECOUNT_FIELDS[name])
    assert len(_MEMO_WORDS) == 1408
    for word in _MEMO_WORDS:
        x = eval_word(word, F)
        assert count_expansions(x) == recount(x), str(word)


@pytest.mark.parametrize("poly, interval, caps", [
    # x^4 - x^3 - 2x + 1, ~1.559, not Pisot (a conjugate of modulus ~1.166):
    # its graphs grow without bound, so acceptance caps
    ((1, -2, 0, -1, 1), (Fraction(155, 100), Fraction(157, 100)), _ACCEPTANCE_CAPS),
    (*_RECOUNT_FIELDS["plastic"], {}),
], ids=["x4-x3-2x+1", "plastic"])
def test_below_phi_no_interior_point_counts_finitely_many_or_aleph0(poly, interval, caps):
    # below the golden ratio every point inside (0, 1/(q-1)) has continuum
    # many expansions (Erdos, Joo and Komornik 1990), and the two ends one
    # each: an interior answer may be a floor, but never finite or aleph0,
    # and where every graph is finite (a Pisot base) it is Continuum
    F = define_field(poly, interval)
    assert (F.q * F.q - F.q - 1).sign() < 0  # q < phi
    ends = {F.zero, domain_bounds(F)[2]}
    kinds = set()
    for word in _MEMO_WORDS:
        x = eval_word(word, F)
        card = count_expansions(x, **caps)
        if x in ends:
            assert card == Cardinality.finite(1), str(word)
        else:
            assert card.kind not in (Count.FINITE, Count.ALEPH0), (str(word), str(card))
            kinds.add(card.kind)
    if not caps:
        assert kinds == {Count.CONTINUUM}


class _Unreadable:
    """A memo any attribute read of which raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"the memo's {name} was read")


def test_run_and_prefix_oracle_do_not_read_the_memo():
    F = define_field(*_KERNEL_FIELDS["qf"])
    F._memo = _Unreadable()
    x = family_member(F, 3)
    assert isinstance(deterministic_run(x).end, SwitchHit)
    assert viable_prefix_counts(x, 40)[-1] == 3
    assert _at_most(x, 3, 40) == Cardinality.finite(3)
    assert _at_most(x, 2, 40) == Cardinality.lower_bound(3)


def test_points_over_one_denominator_share_one_region_rule():
    F = define_field(*_KERNEL_FIELDS["qf"])
    x, y = (F.from_rational(Fraction(k, 7)) for k in (2, 5))
    for point in (x, y):
        count_expansions(point)
    assert list(F._rules) == [7]
    assert branching._start(x)[0] is branching._start(y)[0] is F._rules[7]
    assert F._rules[7].field is F and F._rules[7].den == 7


def test_region_rules_past_the_bound_answer_like_region():
    F = define_field(*_KERNEL_FIELDS["golden"])
    cap = numberfield._RULES_CAP
    for den in range(1, cap + 5):
        rule = F._rule(den)
        # past the bound the newest rule takes the last slot, so a second
        # fetch reads the rule just built
        assert F._rule(den) is rule
        # over den, (-den, den), (den, 0) and (0, den) are golden's bounds
        # q - 1, 1 and q exactly: the filter cannot decide those
        # region reads the rule, so both answer like the element loop
        for num in itertools.product(range(-2 * den, 2 * den + 1), (-den, -1, 0, 1, den)):
            x = F.element([Fraction(c, den) for c in num])
            expected = _ref_region(x)
            assert region(x) is expected, (den, num)
            if expected is not Region.OUTSIDE:
                assert rule.locate(num) is expected, (den, num)
    assert list(F._rules) == [*range(1, cap), cap + 4]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_KERNEL_FIELDS)), st.sampled_from((0, 1, None)),
       st.integers(1, 2**70), st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.lists(st.integers(0, 2**80), min_size=4, max_size=4), st.integers(0, 2**20))
@example("golden", 1, 1, [0] * 4, [0] * 4, 0)  # 1/(q(q-1)) = 1 itself
@example("q2", 0, 3, [0] * 4, [0] * 4, 0)  # 1/q over three times its denominator
def test_a_rules_sieve_places_like_locate_and_region(name, near, scale, offsets, spread, w):
    # numerators over a random denominator, of a value next to a switch bound
    # (the bound's numerators scaled, plus a small offset) or of one spread
    # over the domain (random upper numerators, and num[0] putting the value
    # near w / 2^20 of the way up); the region expected is the reference's,
    # by exact comparisons with the bounds
    F = define_field(*_KERNEL_FIELDS[name])
    bounds, d = domain_bounds(F), F.degree
    if near is None:
        den = scale
        upper = [c % (6 * den) - 3 * den for c in spread[1:d]]
        q, top = (float(enclosure(v, Fraction(1, 2**60))[0]) for v in (F.q, bounds[2]))
        rest = sum(c / den * q**i for i, c in enumerate(upper, 1))
        num = (round((w / 2**20 * top - rest) * den), *upper)
    else:
        b = bounds[near]
        den = b.den * scale
        num = tuple(c * scale + o for c, o in zip(b.num, offsets))
    expected = _ref_region(numberfield._reduced(F, num, den))
    assume(expected is not Region.OUTSIDE)
    rule = F._rule(den)
    assert rule.sieve(*F._filter()(num), num) is expected
    assert rule.locate(num) is expected
    assert region(numberfield._reduced(F, num, den)) is expected


def test_a_root_run_past_the_bound_builds_its_region_rule_once(monkeypatch):
    # region(x) builds the rule for x's denominator, and _start fetches it
    # again for the run
    F = define_field(*_KERNEL_FIELDS["qf"])
    cap = numberfield._RULES_CAP
    for den in range(1, cap + 1):
        F._rule(den)
    Rule, built = numberfield._Rule, []
    monkeypatch.setattr(numberfield, "_Rule",
                        lambda *fields: built.append(fields[-1]) or Rule(*fields))
    x = F.from_rational(Fraction(1, cap + 1))
    rule, reg, _, _ = branching._start(x)
    assert built == [cap + 1]
    assert (rule.den, reg) == (cap + 1, region(x))
    assert len(F._rules) == cap and F._rules[cap + 1] is rule


def test_lower_step_budgets_replace_no_stored_run():
    # a stored run of length L is run again only when L >= max_steps, and
    # then it hits the budget again: no smaller budget replaces a stored run
    F = define_field(*_KERNEL_FIELDS["qf"])
    points = [eval_word(parse_word(t), F)
              for t in ("1(0000)^3 0(10)*", "0(011)*", "001(0110)*", "1(0)*", "(0110)*")]
    for x in points:
        build_branch_graph(x)
    graph = F._memo.graph
    before = [list(entry) for entry in graph]
    runs = [run for _, *pair, _, _ in before for run in pair if run is not None]
    assert any(run[0] >= 3 for run in runs) and all(run[0] >= 1 for run in runs)
    for max_steps in (3, 1):
        for x in points:
            build_branch_graph(x, max_steps=max_steps)
        assert F._memo.graph is graph and len(graph) == len(before)
        assert all(a is b for entry, old in zip(graph, before) for a, b in zip(entry, old))


def _counted_graphs(monkeypatch):
    """The arguments of every ``BranchGraph`` made from now on."""
    calls = []
    init = branching.BranchGraph.__init__
    monkeypatch.setattr(branching.BranchGraph, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    return calls


@pytest.mark.parametrize("text, argv, root_kind", [
    ("1(0000)^1 0(10)*", [], NODE),
    ("(0)*", [], TERMINAL),
    ("0000001(0)*", ["--max-steps", "3"], LIMIT),
])
def test_listings_assemble_no_graph(text, argv, root_kind, monkeypatch, capsys):
    # a listing walks the answer record of the graph below the root run: a
    # cold point, a warm one, a new point past a warm first switch point and
    # the CLI assemble no graph; only build_branch_graph does
    caps = {"max_steps": int(argv[1]) if argv else branching.DEFAULT_MAX_STEPS}
    spec = "poly:{}@{},{}".format(",".join(map(str, _KERNEL_FIELDS["qf"][0])),
                                  *_KERNEL_FIELDS["qf"][1])
    F = define_field(*_KERNEL_FIELDS["qf"])
    x = eval_word(parse_word(text), F)
    calls = _counted_graphs(monkeypatch)
    for point in (x, x, x / F.q):
        for max_count in (64, 2):
            bfs_expansions(point, max_count=max_count, **caps)
            enumerate_expansions(point, max_count=max_count, **caps)
    listed = "".join(f"{w}\n" for w in enumerate_expansions(x, **caps))
    for _ in range(2):
        assert main(["enumerate", "--field", spec, text, *argv]) in (0, 3)
        assert capsys.readouterr().out == listed
    assert not calls
    assert build_branch_graph(x, **caps).root_kind is root_kind
    assert len(calls) == 1


_TABLES = ("nodes", "edges", "terminals")


def _eager(view, max_steps):
    """The graph of a view's record as eager tables, every one filled at
    once, read just after the view was built.  Each node is a switch point
    of the field's graph, by the key it is held by there, and each edge's
    segment must be the one the run that the graph stores for it, if any,
    gives under ``max_steps``: its segment, or its first ``max_steps``
    digits, a unique tail's cycle included."""
    below, field, memo = view._below, view.field, view.field._memo
    keys = below.nodes
    assert all(memo.graph[memo.ids[key]][0] is key for key in keys)
    for i, segment in enumerate(below.segments):
        run = memo.graph[memo.ids[keys[i >> 1]]][1 + (i & 1)]
        if run is not None:
            length, digits, kind, end = run
            if length >= max_steps:
                digits = (digits + end if kind is TERMINAL else digits)[:max_steps]
            assert segment == digits
    targets = [branching._target(t) for t in below.targets]
    return SimpleNamespace(
        root_segment=view.root_segment, root_kind=branching._target(below.root)[0],
        root_target=branching._target(below.root)[1],
        nodes={nid: AlgebraicReal(field, k[1:], k[0]) for nid, k in enumerate(keys)},
        edges={nid: {d: Edge(d, below.segments[2 * nid + d],
                             *targets[2 * nid + d]) for d in (0, 1)} for nid in range(len(keys))},
        terminals={tid: PeriodicWord((), cycle) for tid, cycle in enumerate(below.terminals)},
        truncated=below.limit is not None, limit=below.limit)


def _built_tables(graph):
    return {name for name in _TABLES if name in vars(graph)}


def test_a_count_builds_no_table(monkeypatch):
    # a count whose record the answer memo holds reads the record's count:
    # it builds no node element, and a graph builds a table on its first read
    F = define_field(*_KERNEL_FIELDS["q2"])
    points = [eval_word(word, F) for word in _MEMO_WORDS[::40]]
    for x in points:
        count_expansions(x, **_ACCEPTANCE_CAPS)
    nodes = sum(len(build_branch_graph(x, **_ACCEPTANCE_CAPS).nodes) for x in points)
    built = []
    init = AlgebraicReal.__init__
    monkeypatch.setattr(AlgebraicReal, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for x in points:
        count_expansions(x, **_ACCEPTANCE_CAPS)
    # a root run that leaves its compiled filter reduces a value, never a node
    assert len(built) < len(points) < nodes
    x = points[-1]  # the root memo holds its run
    built.clear()
    assert count_expansions(x, **_ACCEPTANCE_CAPS).kind is branching.Count.LOWER_BOUND
    graph = build_branch_graph(x, **_ACCEPTANCE_CAPS)
    assert not built and not _built_tables(graph)
    edges = graph.edges
    assert not built and _built_tables(graph) == {"edges"}
    assert len(graph.nodes) == len(edges) == len(built) > 0


def _view_sample():
    for make, caps, words in ((qf_field, {}, _MEMO_WORDS), (golden_field, {}, _MEMO_WORDS),
                              (q2_field, _ACCEPTANCE_CAPS, _MEMO_WORDS[::40])):
        F = make()
        for word in words:
            yield eval_word(word, F), caps


def test_views_equal_eager_builds():
    # each table is built on its own first read, equal to the eager one and
    # kept; a copy of a view shares its record and only the tables read
    assert len(_MEMO_WORDS) == 1408
    for x, caps in _view_sample():
        eager = _eager(build_branch_graph(x, **caps),
                       caps.get("max_steps", branching.DEFAULT_MAX_STEPS))
        form = _graph_form(eager)
        for i in range(3):
            order = _TABLES[i:] + _TABLES[:i]
            view = build_branch_graph(x, **caps)
            assert view.field is x.field and view.start is x
            for n, name in enumerate(order):
                table = getattr(view, name)
                assert _built_tables(view) == set(order[:n + 1]), (str(x), order)
                assert table == getattr(eager, name)
                assert getattr(view, name) is table
            assert _graph_form(view) == form, str(x)
        view = build_branch_graph(x, **caps)
        twin = copy.copy(view)
        twin.truncated = not view.truncated
        assert twin._below is view._below and not _built_tables(twin)
        eager.truncated = not eager.truncated
        assert _graph_form(twin) == _graph_form(eager) != _graph_form(view)
        assert _built_tables(twin) == _built_tables(view) == set(_TABLES)
        assert all(getattr(twin, name) is not getattr(view, name) for name in _TABLES)
        assert _graph_form(build_branch_graph(x, **caps)) == form


def test_only_the_walk_names_switch_points_by_id():
    # ids index the field's graph within one walk: in branching only _grow
    # calls _ref, no BranchGraph method reads a field's memo or keeps a
    # graph, and a record names its nodes by reduced form, holding no id
    tree = ast.parse(Path(branching.__file__).read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    callers = {name for name, node in defs.items() for call in ast.walk(node)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == "_ref"}
    assert callers == {"_grow"}
    read = {node.attr for node in ast.walk(defs["BranchGraph"]) if isinstance(node, ast.Attribute)}
    assert "_memo" not in read and "_graph" not in read
    fields = {stmt.target.id: ast.unparse(stmt.annotation) for stmt in defs["_Below"].body
              if isinstance(stmt, ast.AnnAssign)}
    assert list(fields) == ["root", "nodes", "targets", "segments", "terminals", "limit", "count",
                            "live", "kept", "listings"]
    assert fields["nodes"] == "tuple[tuple[int, ...], ...]"


def test_a_view_reads_only_its_three_tables():
    x = eval_word(parse_word("1(0000)^1 0(10)*"), define_field(*_KERNEL_FIELDS["qf"]))
    view = build_branch_graph(x)
    with pytest.raises(AttributeError, match="'BranchGraph' object has no attribute 'node'"):
        view.node
    with pytest.raises(TypeError):  # a graph is a view of a record, never built by hand
        BranchGraph(x.field, x, (), NODE, 0)
    view.edges[0][0] = None  # a returned dict is the view's own
    assert view.edges[0][0] is None and build_branch_graph(x).edges[0][0] is not None
    assert classify(view) == Cardinality.finite(2)


# ---------------------------------------------------------------------------
# the kernel's float tracker and the branch starts past the golden ratio
#
# The run decides a step's region from a double x̂ and a bound ε on its
# error wherever x̂ ± ε clears the field's certified intervals for the
# switch bounds, and past φ a walk starts the branches of a switch point in
# HIGH and LOW without placing them.  Each answer must be the exact one.

_TRACKER_NAMES = ("q2", "qf", "golden")
_U = Fraction(1, 2**53)  # the unit roundoff of a double


def _placed_run(rule, n, reg, max_steps):
    """The kernel's run shape, and its ``seen``, from a test-local loop
    that places every value with ``words.region`` on its reduced element."""
    F, den = rule.field, rule.den
    seen, digits = {}, []
    for i in range(max_steps):
        if reg is Region.SWITCH:
            v = numberfield._reduced(F, n, den)
            return (i, tuple(digits), NODE, (v.den, *v.num)), seen
        at = seen.setdefault(n, i)
        if at != i:
            return (i, tuple(digits[:at]), TERMINAL, tuple(digits[at:])), seen
        digit = 0 if reg is Region.LOW else 1
        digits.append(digit)
        n = F._step(n, -digit * den)
        reg = region(numberfield._reduced(F, n, den))
    return (max_steps, tuple(digits), LIMIT, n), seen


@functools.lru_cache(maxsize=None)
def _swept(name):
    """A field of its own on which every canonical word with preperiod <= 6
    and period <= 4 was counted at the acceptance caps, and the switch
    points its graph holds, as elements."""
    F = define_field(*_KERNEL_FIELDS[name])
    for word in _MEMO_WORDS:
        count_expansions(eval_word(word, F), **_ACCEPTANCE_CAPS)
    return F, [AlgebraicReal(F, key[1:], key[0]) for key, *_ in F._memo.graph]


def _bounds(value, x_hat, eps):
    """Whether a tracker (x̂, ε) with ε < 1/4 bounds ``value``: the test's
    own enclosure of it lies within x̂ ± ε."""
    lo, hi = enclosure(value, Fraction(1, 2**90))
    return Fraction(x_hat) - Fraction(eps) <= lo and hi <= Fraction(x_hat) + Fraction(eps)


def _start_seed(rule, n):
    """The tracker a run from a placed point with numerators ``n`` over the
    rule's denominator starts from: the placement's own restart from the
    filter sum (s, e), or no tracker when e is not below the rule's cap."""
    s, e = rule.field._filter()(n)
    kappa = rule.field._tracking()[2]
    return (s * rule.scale, e * rule.scale + kappa) if e < rule.cap else (0.0, 1.0)


def _branch_seed(field, x_hat, eps, digit):
    """The tracker both branches of a switch point start from: one more
    kernel step of the point's tracker (x̂, ε), when ε < 1/4."""
    q, q_up, kappa = field._tracking()[:3]
    return (q * x_hat - digit, q_up * eps + kappa) if eps < 0.25 else (0.0, 1.0)


def _recorded_runs(mp):
    """Every kernel run (``_run``) from now on: the name of the function
    that made it, what it had at hand (a walk's graph entry and slot, and
    whether a level walk had counted levels), and the run's arguments."""
    calls = []
    run = branching._run

    def recorded(*args):
        caller = sys._getframe(1)
        at_hand = caller.f_locals
        calls.append((caller.f_code.co_name, at_hand.get("entry"), at_hand.get("slot"),
                      bool(at_hand.get("counts")), args))
        return run(*args)

    mp.setattr(branching, "_run", recorded)
    return calls


def _check_seeds(field, calls):
    """Each recorded run started from the tracker its start gives: a branch
    from its switch point's entry in the field's graph, a run from a point
    ``_start`` placed from that point's filter sum, and a later stretch of
    a level walk with none; and each tracker with ε < 1/4 bounds its value."""
    for caller, entry, slot, later, (rule, n, reg, budget, seen, x_hat, eps) in calls:
        value = numberfield._reduced(field, n, rule.den)
        if caller == "_grow":
            digit = slot - 1
            assert AlgebraicReal(field, entry[0][1:], entry[0][0]).times_q_minus(digit) == value
            assert (x_hat, eps) == _branch_seed(field, *entry[3:], digit)
        elif later:
            assert caller == "_levels" and eps == 1.0
        else:
            assert caller in ("_record", "deterministic_run", "_levels")
            assert (x_hat, eps) == _start_seed(rule, n)
        assert eps >= 0.25 or _bounds(value, x_hat, eps)


@pytest.mark.parametrize("name", _TRACKER_NAMES)
def test_runs_equal_the_region_loop_on_every_small_word(name):
    F = define_field(*_KERNEL_FIELDS[name])
    seeded = 0
    for word in _MEMO_WORDS:
        x = eval_word(word, F)
        rule, reg, x_hat, eps = branching._start(x)
        assert (x_hat, eps) == _start_seed(rule, x.num)
        seeded += eps < 0.25
        seen = {}
        got = branching._run(rule, x.num, reg, 250, seen, x_hat, eps)
        assert (got[:4], seen) == _placed_run(rule, x.num, region(x), 250), str(word)
    assert seeded == len(_MEMO_WORDS)  # every sweep word's filter sum starts a tracker


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_TRACKER_NAMES), st.integers(0, 2**32), st.integers(0, 1),
       st.sampled_from([1, 3, 17, 250, 1000]))
def test_runs_from_switch_point_branches_equal_the_region_loop(name, pick, digit, budget):
    # a start as the walk makes it: a branch out of a switch point, over the
    # point's own denominator, in the region the walk passes, from the
    # tracker its entry in the field's graph keeps
    F, points = _swept(name)
    s = points[pick % len(points)]
    entry = F._memo.graph[pick % len(points)]
    rule = F._rule(s.den)
    branch = F._step(s.num, -digit * s.den)
    reg = (Region.HIGH, Region.LOW)[digit] if F._tracking()[7] else rule.locate(branch)
    assert reg is region(s.times_q_minus(digit))
    x_hat, eps = _branch_seed(F, *entry[3:], digit)
    assert eps >= 0.25 or _bounds(s.times_q_minus(digit), x_hat, eps)
    seen = {}
    got = branching._run(rule, branch, reg, budget, seen, x_hat, eps)
    assert (got[:4], seen) == _placed_run(rule, branch, reg, budget)
    # the tracker a run ends with at a switch point, which its entry keeps
    if got[2] is NODE and got[5] < 0.25:
        assert _bounds(AlgebraicReal(F, got[3][1:], got[3][0]), *got[4:])


@pytest.mark.parametrize("name", _TRACKER_NAMES)
def test_every_run_starts_from_the_tracker_its_start_gives(name):
    # every run of a cold count, listing, orbit and prefix count: branches
    # one step on from their switch point's tracker, placed points from
    # their own filter sum, each bound sound
    F = define_field(*_KERNEL_FIELDS[name])
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_runs(mp)
        for word in _MEMO_WORDS[::10]:
            x = eval_word(word, F)
            count_expansions(x, **_ACCEPTANCE_CAPS)
            deterministic_run(x, max_steps=250)
            viable_prefix_counts(x, 30)
    assert {call[0] for call in calls} == {"_grow", "_record", "deterministic_run", "_levels"}
    assert sum(call[-1][-1] < 0.25 for call in calls) > len(calls) // 2
    _check_seeds(F, calls)


def test_a_cold_q2_sweep_places_few_kernel_steps():
    # the kernel's integer placements: every run starts with a tracker, so a
    # placement comes only where a bound reaches 1/4 or a value's filter
    # error is too large to start one
    F = define_field(*_KERNEL_FIELDS["q2"])
    points = [eval_word(word, F) for word in _MEMO_WORDS]
    placed = []
    filt = F._filter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "_filter_sum", lambda num: (sys._getframe(1).f_code.co_name == "_run"
                                                  and placed.append(num)) or filt(num))
        calls = _recorded_runs(mp)
        for x in points:
            count_expansions(x, **_ACCEPTANCE_CAPS)
    assert len(calls) > 5000
    assert len(placed) * 20 < len(calls)


@pytest.mark.parametrize("name", ["q2", "qf"])
def test_runs_from_powers_of_one_over_q_hit_it_on_time(name):
    # 0^k 1(0)* is q^-(k+1): k zeros, then the switch point 1/q itself, on
    # the bound, where x̂ has been stepped k times from its start and its
    # error has grown to about q^k * 2^-52
    F = define_field(*_KERNEL_FIELDS[name])
    low = domain_bounds(F)[0]
    for k in range(61):
        out = deterministic_run(eval_word(PeriodicWord((0,) * k + (1,)), F))
        assert out.segment == (0,) * k and out.end == SwitchHit(low), k


@pytest.mark.parametrize("name", ["q2", "qf"])
def test_the_tracker_restarts_where_its_bound_reaches_a_quarter(name):
    # 300 steps from q^-301 up to 1/q, all LOW and far below 1/q until the
    # last: each placement restarts the tracker, which then decides every
    # step until its bound reaches 1/4, where the next placement restarts
    # it.  The filter's error grows with the numerators, large at q^-301,
    # so the first restarts come often
    F = define_field(*_KERNEL_FIELDS[name])
    x = eval_word(PeriodicWord((0,) * 300 + (1,)), F)
    placed = []
    filt = F._filter()
    F._filter_sum = lambda num: placed.append(num) or filt(num)
    out = deterministic_run(x, max_steps=400)
    assert out.segment == (0,) * 300 and out.end == SwitchHit(domain_bounds(F)[0])
    steps = {v.num: i for i, v in enumerate(out.orbit)}
    # the run starts from the filter sum region(x) took, a placement at step 0
    at = sorted({0} | {steps[n] for n in placed if n in steps and steps[n] > 0})
    q, q_up, kappa = F._tracking()[:3]
    rule = F._rule(x.den)
    assert at[-1] == 300
    for start, stop in zip(at, at[1:]):
        e = filt(out.orbit[start].num)[1]
        eps = e * rule.scale + kappa if e < rule.cap else 1.0
        for _ in range(start + 1, stop):
            eps = q_up * eps + kappa
            assert eps < 0.25  # every step the tracker decided
        assert stop == 300 or q_up * eps + kappa >= 0.25
    assert 4 <= len(at) < 150  # it restarts, and decides most steps


@pytest.mark.parametrize("name", ["q2", "qf", "cubic"])
def test_a_denominator_past_the_doubles_range_starts_no_tracker(name):
    # q^-30 plus 2^-900: 29 LOW steps, each placed by the rule, since its
    # cap is 0 and no filter sum ever starts the tracker
    F = define_field(*_KERNEL_FIELDS[name])
    x = eval_word(PeriodicWord((0,) * 29 + (1,)), F) + Fraction(1, 2**900)
    assert F._rule(x.den).cap == 0
    placed = []
    filt = F._filter()
    F._filter_sum = lambda num: placed.append(num) or filt(num)
    out = deterministic_run(x, max_steps=60)
    assert len(out.segment) >= 29 and len(placed) > len(out.segment)
    F._filter_sum = filt
    assert out == _ref_run(x, 60)


@pytest.mark.parametrize("name", sorted(_KERNEL_FIELDS))
def test_tracker_constants_satisfy_the_error_bound(name):
    # the proof's inequalities (see _run), in Fractions, against the
    # test's own enclosures of q, 1/(q-1) and the switch bounds
    F = define_field(*_KERNEL_FIELDS[name])
    q, q_up, kappa, a0, a1, b0, b1, above_phi = F._tracking()
    width = Fraction(1, 2**90)
    q_lo, q_hi = enclosure(F.q, width)
    reach = enclosure(domain_bounds(F)[2], width)[1] + 1  # B = T + 1
    delta = max(q_hi - Fraction(q), Fraction(q) - q_lo)
    assert delta <= _U * q_hi  # q̂ is q rounded to nearest
    assert Fraction(q_up) * (1 - _U) ** 2 >= q_hi
    assert Fraction(kappa) * (1 - _U) >= delta * reach + 2 * _U * (Fraction(q) * reach + 1)
    assert Fraction(kappa) * (1 - _U) >= 4 * _U * reach  # a start's rounding
    for (lo, hi), (bound_lo, bound_hi) in zip(((a0, a1), (b0, b1)),
                                              (enclosure(b, width) for b in domain_bounds(F)[:2])):
        assert Fraction(lo) <= (1 - _U) * bound_lo and Fraction(hi) >= (1 + _U) * bound_hi
        assert Fraction(hi) - Fraction(lo) < 2**-45  # and they are tight
    phi_lo, phi_hi = enclosure(F.q * F.q - F.q - 1)
    assert above_phi is (phi_lo > 0)


@pytest.mark.parametrize("name", ["q2", "qf"])
def test_branch_starts_past_phi_are_high_and_low(name):
    # over the 1,408-word sweep, the two branch values of every switch point
    # the field's graph holds lie where the walk starts them
    F, points = _swept(name)
    assert F._tracking()[7] and len(points) > 100
    for s in points:
        assert region(s.times_q_minus(0)) is Region.HIGH, str(s)
        assert region(s.times_q_minus(1)) is Region.LOW, str(s)


def test_branch_starts_are_placed_at_phi():
    # in golden, 1/(q(q-1)) = 1: the branch q * (1/q) = 1 is a switch point,
    # so the flag is off; forced on, the walk would start that branch in
    # HIGH, and 1/q's graph would be wrong
    F = define_field(*_KERNEL_FIELDS["golden"])
    low = domain_bounds(F)[0]
    assert F._tracking()[7] is False
    assert region(low.times_q_minus(0)) is Region.SWITCH
    want = _graph_form(build_branch_graph(low))
    forced = define_field(*_KERNEL_FIELDS["golden"])
    forced._tracker = (*forced._tracking()[:7], True)
    assert _graph_form(build_branch_graph(domain_bounds(forced)[0])) != want
