"""Tests for orbit runs, branch graphs, cardinality classification,
enumeration, and the independent prefix-count oracle."""

import functools
import itertools
import math
import operator
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from betaforge import branching, numberfield, words
from betaforge.cli import main
from betaforge.branching import LIMIT, NODE, TERMINAL
from betaforge.numberfield import AlgebraicReal
from conftest import enclosure


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
# classification on hand-built graphs


def _graph(root_kind, root_target, edges, terminals=None, truncated=False):
    F = q2_field()
    return BranchGraph(
        field=F,
        start=F.one,
        root_segment=(),
        root_kind=root_kind,
        root_target=root_target,
        nodes={nid: F.one for nid in edges},
        edges=edges,
        terminals=terminals or {},
        truncated=truncated,
    )


def _edge(digit, kind, target):
    return Edge(digit, (), kind, target)


def test_classify_terminal_root():
    g = _graph(TERMINAL, 0, {}, terminals={0: parse_word("(0)*")})
    assert classify(g) == Cardinality.finite(1)


def test_classify_limit_root():
    g = _graph(LIMIT, None, {}, truncated=True)
    assert classify(g) == Cardinality.lower_bound(1)


def test_classify_truncated_floor_counts_unresolved_edges():
    edges = {0: {0: _edge(0, LIMIT, None), 1: _edge(1, LIMIT, None)}}
    g = _graph(NODE, 0, edges, truncated=True)
    assert classify(g) == Cardinality.lower_bound(2)


def test_classify_truncated_floor_counts_closed_component_once():
    # node 1 loops on itself twice and never exits: its points still have
    # an expansion, so it adds one to the floor, not zero
    edges = {
        0: {0: _edge(0, LIMIT, None), 1: _edge(1, NODE, 1)},
        1: {0: _edge(0, NODE, 1), 1: _edge(1, NODE, 1)},
    }
    g = _graph(NODE, 0, edges, truncated=True)
    assert classify(g) == Cardinality.lower_bound(2)


def test_classify_two_cycle_is_aleph0():
    edges = {
        0: {0: _edge(0, NODE, 1), 1: _edge(1, TERMINAL, 0)},
        1: {0: _edge(0, TERMINAL, 1), 1: _edge(1, NODE, 0)},
    }
    terminals = {0: parse_word("(0)*"), 1: parse_word("(1)*")}
    g = _graph(NODE, 0, edges, terminals=terminals)
    assert classify(g) == Cardinality.aleph0()


def test_classify_double_self_loop_is_continuum():
    edges = {0: {0: _edge(0, NODE, 0), 1: _edge(1, NODE, 0)}}
    g = _graph(NODE, 0, edges)
    assert classify(g) == Cardinality.continuum()


def test_classify_dag_counts_paths():
    t = parse_word("(0)*")
    edges = {
        0: {0: _edge(0, NODE, 1), 1: _edge(1, NODE, 2)},
        1: {0: _edge(0, TERMINAL, 0), 1: _edge(1, TERMINAL, 0)},
        2: {0: _edge(0, TERMINAL, 0), 1: _edge(1, NODE, 1)},
    }
    g = _graph(NODE, 0, edges, terminals={0: t})
    assert classify(g) == Cardinality.finite(5)


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
def test_enumeration_matches_full_frontier_reference(field_factory, caps, monkeypatch):
    F = field_factory()
    words = list(_canonical_words(4, 3))
    assert len(words) == 160
    for word in words:
        x = eval_word(word, F)
        graph = build_branch_graph(x, **caps)
        # bfs_expansions walks this same graph instead of building it anew
        monkeypatch.setattr(branching, "build_branch_graph", lambda *_, **__: graph)
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
    graph = BranchGraph(field=x.field, start=x, root_segment=run0.segment,
                        root_kind="", root_target=None)

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


def _kernel_answers(x, caps, depth):
    """Run, graph and prefix counts from the kernel; OutsideDomain as a value."""
    try:
        return (deterministic_run(x, max_steps=caps["max_steps"]),
                build_branch_graph(x, **caps), viable_prefix_counts(x, depth))
    except OutsideDomain as exc:
        return str(exc)


def _reference_answers(x, caps, depth):
    try:
        return (_ref_run(x, caps["max_steps"]),
                _ref_graph(x, caps["max_steps"], caps["max_nodes"]),
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
    assert _kernel_answers(x, caps, 6) == _reference_answers(x, caps, 6)


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


def test_compiled_kernel_at_a_degree_past_the_compilers_nesting_limit():
    # a chain of 3000 additions would exhaust the compiler's recursion limit;
    # the sums are grouped as balanced trees
    rng = random.Random(3000)
    row = [rng.randint(-3, 3) for _ in range(3000)]
    num = tuple(rng.randint(-2**70, 2**70) for _ in row)
    assert numberfield._compile_step(row)(num, 5) == _ref_times_q(num, row, 5)
    assert numberfield._compile_filter(row)(num) == _ref_filter_sum(num, row)


# ---------------------------------------------------------------------------
# the branch memo: each switch point's forced runs, kept per field
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
        got = build_branch_graph(eval_word(word, warm), **caps)
        assert _graph_form(got) == _cold_form(name, word, caps), str(word)
        for table in (got.nodes, got.terminals, *got.edges.values(), got.edges):
            table.clear()  # a later graph that changes with it was aliased to this one


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
    """The arguments of every ``_Orbits.run`` call from now on."""
    calls = []
    run = branching._Orbits.run
    monkeypatch.setattr(branching._Orbits, "run",
                        lambda self, *args: calls.append(args) or run(self, *args))
    return calls


def test_warm_memo_runs_only_the_root(monkeypatch):
    F = define_field(*_KERNEL_FIELDS["qf"])
    x = family_member(F, 3)
    calls = _counted_runs(monkeypatch)
    cold = build_branch_graph(x)
    assert cold.nodes and len(calls) == 1 + 2 * len(cold.nodes)
    # a repeated point reads its root run from the root memo
    calls.clear()
    assert build_branch_graph(x) == cold
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
    return sum(len(below.keys) + 1 + sum(len(words) + 1 for words, _, _ in below.listings.values())
               for below in field._answers.values())


def test_full_memo_admits_no_more_switch_points(monkeypatch):
    monkeypatch.setattr(branching, "_MEMO_CAP", 3)
    warm = define_field(*_KERNEL_FIELDS["q2"])
    for word in _MEMO_WORDS[:40]:
        got = build_branch_graph(eval_word(word, warm), **_ACCEPTANCE_CAPS)
        assert len(warm._branches) <= 3
        assert _graph_form(got) == _cold_form("q2", word, _ACCEPTANCE_CAPS), str(word)
    assert len(warm._branches) == 3
    # the answer memo holds at most _MEMO_CAP nodes and words: q2's graphs
    # at these caps are too large for it, and qf keeps one two-node graph
    # and then no listing
    for name, caps, held in (("q2", _ACCEPTANCE_CAPS, 0), ("qf", _KERNEL_CAPS["qf"], 3)):
        warm = define_field(*_KERNEL_FIELDS[name])
        for word in _MEMO_WORDS[:40]:
            for job in ("count", "bfs"):
                answer = _answer_form(job, eval_word(word, warm), caps)
                assert warm._answer_cells == _held_cells(warm) <= 3
                assert answer == _cold_answer(name, word, job, caps), (name, str(word), job)
        assert warm._answer_cells == held


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
            assert len(warm._roots) == 1
        assert roots == [1, 0, 0], str(word)
        ((key, (length, segment, _, _)),) = warm._roots.items()
        assert key == (x.den, *x.num)
        assert segment == build_branch_graph(x, **caps).root_segment
        assert length == len(segment) and segment == (0,) * word.preperiod.index(1)


def test_run_and_prefix_oracle_do_not_read_the_memo():
    F = define_field(*_KERNEL_FIELDS["qf"])
    F._roots = F._branches = F._answers = None  # any read of a memo raises
    x = family_member(F, 3)
    assert isinstance(deterministic_run(x).end, SwitchHit)
    assert viable_prefix_counts(x, 40)[-1] == 3


def test_points_over_one_denominator_share_one_region_rule():
    F = define_field(*_KERNEL_FIELDS["qf"])
    x, y = (F.from_rational(Fraction(k, 7)) for k in (2, 5))
    for point in (x, y):
        count_expansions(point)
    assert list(F._rules) == [7]
    assert branching._start(x)[0].locate is branching._start(y)[0].locate is F._rules[7]


def test_region_rules_past_the_bound_answer_like_region():
    F = define_field(*_KERNEL_FIELDS["golden"])
    cap = words._RULES_CAP
    for den in range(1, cap + 5):
        rule = words._region_rule(F, den)
        assert (words._region_rule(F, den) is rule) == (den <= cap)
        # over den, (-den, den), (den, 0) and (0, den) are golden's bounds
        # q - 1, 1 and q exactly: the filter cannot decide those
        for num in itertools.product(range(-2 * den, 2 * den + 1), (-den, -1, 0, 1, den)):
            x = F.element([Fraction(c, den) for c in num])
            if region(x) is not Region.OUTSIDE:
                assert rule(num) is region(x), (den, num)
    assert len(F._rules) == cap


def _counted_graphs(monkeypatch):
    """The arguments of every ``_Below.graph`` call from now on."""
    calls = []
    graph = branching._Below.graph
    monkeypatch.setattr(branching._Below, "graph",
                        lambda self, *args: calls.append(args) or graph(self, *args))
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
