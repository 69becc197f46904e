"""Branching analysis of expansions: how many digit streams a point has.

The switch points that forced runs reach from a point x form x's branch
graph, whose infinite paths are x's expansions; one pass over its strongly
connected components (``_answer``) decides how many there are.  Independent
of the graphs, ``viable_prefix_counts`` counts viable prefixes by a level
walk (``_levels``) that reads no memo, and ``_at_most`` stops that walk
once a count passes k.

Every walk steps raw numerators over x's denominator with one orbit kernel,
``_run``.  Each field keeps its root memo, switch-point graph and answer
memo of records in one object (``_Memo``), replaced whole once full.  The
kernel is described in README's *Orbits over one denominator*, and the
memos in README's *Switch points expanded once per field*.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

from .numberfield import AlgebraicReal, Region, _reduced, _Rule
from .words import PeriodicWord, region

DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_NODES = 10_000
DEFAULT_MAX_COUNT = 64
DEFAULT_MAX_DEPTH = 256
# switch points a field's graph holds before the next walk replaces the
# field's memo, about 3.6x the 4,568 that the graphs of every canonical q2
# word with preperiod <= 6 and period <= 4 reach at caps 250/64 (2,486 of
# them expanded); and nodes plus listed words its answer memo holds in
# all.  A full answer memo still serves what it holds.
_MEMO_CAP = 1 << 14


class Kind(str, Enum):
    """How a forced run ends, and where a graph edge leads: a switch point,
    a unique tail, or a step or node limit.  Compare members with ``is``."""

    NODE = "node"
    TERMINAL = "terminal"
    LIMIT = "limit"


NODE, TERMINAL, LIMIT = Kind
# bound once for the forced walk's per-call setup: looking up an Enum member
# on its class is slow on Python 3.11
SWITCH, LOW, HIGH = Region.SWITCH, Region.LOW, Region.HIGH


class OutsideDomain(ValueError):
    """The point lies outside [0, 1/(q-1)] and has no expansion."""


# ---------------------------------------------------------------------------
# deterministic orbit


@dataclass(frozen=True)
class SwitchHit:
    """The forced orbit reached a switch point (both branches viable)."""

    value: AlgebraicReal


@dataclass(frozen=True)
class UniqueTail:
    """The forced orbit closed a cycle that never meets the switch interval:
    from here the digit stream is the single periodic ``tail_word``."""

    cycle: tuple[AlgebraicReal, ...]
    tail_word: PeriodicWord


@dataclass(frozen=True)
class StepLimit:
    """The step budget ran out before the orbit resolved."""

    steps: int


@dataclass(frozen=True)
class RunOutcome:
    """Digits forced before the orbit resolved, how it resolved, and the
    values visited: ``orbit[i]`` precedes digit i, ``orbit[-1]`` is where it stopped."""

    segment: tuple[int, ...]
    end: SwitchHit | UniqueTail | StepLimit
    orbit: tuple[AlgebraicReal, ...]


def _run(rule: _Rule, n: tuple[int, ...], reg: Region, max_steps: int,
         seen: dict[tuple[int, ...], int], x: float, eps: float) -> tuple:
    """The orbit kernel: follow the forced branch from the value with
    numerators ``n`` over the rule's denominator D (in region ``reg``)
    until a switch point, a closed non-branching cycle, or the step budget.

    q is an algebraic integer, so q * (n / D) - d = (q * n - d * D) / D:
    every value reached stays over D as a raw numerator tuple, and for that
    D equal values have equal tuples.  Every value the kernel makes lies in
    the domain (a forced digit and either digit at a switch point keep it
    there, see ``words``), so ``rule`` compares it with the switch bounds
    only.

    Returns the memos' run shape (length, segment, kind, end), then the
    tracker (x̂, ε) held after the last step, with ``length`` the digits
    stepped: ``end`` is the switch point's reduced
    form (den, *num) (NODE, as ``_reduced`` reduces it, with no element
    built), the cycle's digits (TERMINAL, the cycle starting at step
    ``len(segment)`` and counted in the length), or the tuple after the
    last step (LIMIT, of length max_steps).  A run of length L is what
    every budget above L returns; every budget B <= L gives a LIMIT of
    length B.  ``seen``, empty, is filled with each visited tuple's step,
    in order.

    Each step's region comes from a double x̂ of the value x with a bound
    |x̂ - x| <= ε, when x̂ ± ε lies clear of the field's certified double
    intervals [a0, a1] for 1/q and [b0, b1] for 1/(q(q-1)), and
    otherwise from the rule's placement: the filter sum (s, e), then the
    rule's ``sieve``.  That placement restarts the tracker at
    x̂ = s * c, ε = e * c + κ (see ``BaseField._rule``).  The run starts
    from the tracker (x, eps) it is given, (0.0, 1.0) for none.  A step
    x <- q * x - d sets x̂ <- q̂ * x̂ - d and ε <- q⁺ * ε + κ, with the
    field's constants (``BaseField._tracking``), and the tracker decides
    only while ε < 1/4.  Proof, with u = 2^-53 the unit roundoff and every value x
    in the domain [0, T], T = 1/(q-1), B = T + 1:

    - at a start, X = s / (den * 2^P) is within e * c_true <= 1/8 of x
      (e < cap), so |X| <= B, and the three roundings of float(s) * c
      put x̂ within 3.01 * u * B of X.  The rounded e * c + κ is at least
      e * c_true (1 - u)^4 + κ (1 - u), which covers both, since
      κ >= 2^-48 (q̂ B + 1) >= 32 u B.  A run from a point that
      ``_start`` placed starts from that placement's own sum, x's cached
      (s, e), so it is such a start;
    - at a step from ε < 1/4, |x̂| <= T + 1/4 <= B, so
      |fl(fl(q̂ x̂) - d) - (q x - d)| <= q ε + δ B + u |q̂ x̂| +
      u |fl(q̂ x̂) - d| <= q ε + δ B + 2^-52 (q̂ B + 1), and the rounded
      q⁺ * ε + κ is at least q⁺ ε (1 - u)^2 + κ (1 - u), which covers it,
      since q⁺ >= q (1 + 2^-50) >= q / (1 - u)^2.  ε only grows along
      steps, so a tracker with ε < 1/4 came from a start by steps each
      from ε < 1/4, and bounds its value.  A run that ends at a switch
      point s returns such a tracker of s, and a branch run out of s
      starts one step on from it (``_grow``), taken only from ε < 1/4:
      x̂ <- q̂ * x̂ - d and ε <- q⁺ * ε + κ, a step this case covers;
    - a rounded x̂ + ε below a0 means x̂ + ε < a0 / (1 - u) <= 1/q, and
      a rounded x̂ - ε above a1 or b1 means x̂ - ε > a1 / (1 + u) >= 1/q,
      or above 1/(q(q-1)): the interval's widening covers the rounding.

    A step whose ε reaches 1/4 takes the placement, which restarts the
    tracker; a value whose e is not below the rule's cap starts none."""
    _, sieve, c, cap, field, den = rule
    step, filt, minus_one = field._step, field._filter_sum, -den
    q, q_up, kappa, a0, a1, b0, b1, _ = field._tracker
    digits: list[int] = []
    for i in range(max_steps):
        if reg is SWITCH:
            g = math.gcd(den, *n)
            end = (den, *n) if g == 1 else (den // g, *[v // g for v in n])
            return i, tuple(digits), NODE, end, x, eps
        at = seen.setdefault(n, i)
        if at != i:
            return i, tuple(digits[:at]), TERMINAL, tuple(digits[at:]), x, eps
        if reg is LOW:
            digits.append(0)
            n = step(n, 0)
            x = q * x
        else:
            digits.append(1)
            n = step(n, minus_one)
            x = q * x - 1.0
        eps = q_up * eps + kappa
        if eps < 0.25:
            if x + eps < a0:
                reg = LOW
                continue
            if x - eps > b1:
                reg = HIGH
                continue
            if x - eps > a1 and x + eps < b0:
                reg = SWITCH
                continue
        s, e = filt(n)
        reg = sieve(s, e, n)
        if e < cap:
            x, eps = s * c, e * c + kappa
        else:
            eps = 1.0
    return max_steps, tuple(digits), LIMIT, n, x, eps


def _start(x: AlgebraicReal) -> tuple[_Rule, Region, float, float]:
    """The kernel's rule for x's denominator, x's region, and the tracker
    (x̂, ε) that restarts from the filter sum (s, e) ``region`` took on x,
    or (0.0, 1.0), no tracker, when e is not below the rule's cap; a point
    outside the domain raises."""
    reg = region(x)
    if reg is Region.OUTSIDE:
        raise OutsideDomain(f"{x} is outside [0, 1/(q-1)]")
    rule = x.field._rule(x.den)
    s, e = x._scaled()
    if e < rule.cap:
        return rule, reg, s * rule.scale, e * rule.scale + x.field._tracker[2]
    return rule, reg, 0.0, 1.0


def _over(key: tuple[int, ...], den: int) -> tuple[int, ...]:
    """The numerators over ``den`` of the switch point with reduced form
    ``key`` (den, *num), a point reached over ``den``: its reduced
    denominator divides ``den``."""
    return key[1:] if key[0] == den else tuple([c * (den // key[0]) for c in key[1:]])


def deterministic_run(x: AlgebraicReal, max_steps: int = DEFAULT_MAX_STEPS) -> RunOutcome:
    """Follow the forced branch from x until a switch point, a closed
    non-branching cycle, or the step budget."""
    rule, reg, x_hat, eps = _start(x)
    field, den = x.field, x.den
    seen: dict[tuple[int, ...], int] = {}
    _, segment, kind, end, _, _ = _run(rule, x.num, reg, max_steps, seen, x_hat, eps)
    orbit = [_reduced(field, n, den) for n in seen]
    if kind is TERMINAL:
        at = len(segment)
        return RunOutcome(segment, UniqueTail(tuple(orbit[at:]), PeriodicWord((), end)),
                          tuple(orbit[:at + 1]))
    v = AlgebraicReal(field, end[1:], end[0]) if kind is NODE else _reduced(field, end, den)
    return RunOutcome(segment, SwitchHit(v) if kind is NODE else StepLimit(max_steps),
                      (*orbit, v))


# ---------------------------------------------------------------------------
# branch graph


class Edge(NamedTuple):
    """One branch out of a switch point: the chosen digit, the digits forced
    after it, and where that leads (``kind``; ``target`` is the node or
    terminal id, None for a limit)."""

    digit: int
    segment: tuple[int, ...]
    kind: Kind
    target: int | None


class BranchGraph:
    """All switch points reachable from a start value, with forced segments
    on the edges and unique tails collected as terminals.  ``limit`` names
    the limit that first truncated the graph: "max_steps" or "max_nodes".

    A read-only view of a record (``_Below``) that reads nothing of the
    field's memo: each of ``nodes``, ``edges`` and ``terminals`` is built
    from the record on its first read and kept."""

    def __init__(self, x: AlgebraicReal, segment: tuple[int, ...], below: _Below):
        self.field, self.start, self.root_segment = x.field, x, segment
        self.root_kind, self.root_target = _target(below.root)
        self.truncated, self.limit = below.limit is not None, below.limit
        self._below = below

    @functools.cached_property
    def nodes(self) -> dict[int, AlgebraicReal]:
        field = self.field
        return {nid: AlgebraicReal(field, k[1:], k[0]) for nid, k in enumerate(self._below.nodes)}

    @functools.cached_property
    def edges(self) -> dict[int, dict[int, Edge]]:
        below = self._below
        return {nid: {d: Edge(d, below.segments[2 * nid + d],
                              *_target(below.targets[2 * nid + d])) for d in (0, 1)}
                for nid in range(len(below.nodes))}

    @functools.cached_property
    def terminals(self) -> dict[int, PeriodicWord]:
        return {tid: PeriodicWord((), cycle) for tid, cycle in enumerate(self._below.terminals)}


def build_branch_graph(x: AlgebraicReal, max_steps: int = DEFAULT_MAX_STEPS,
                       max_nodes: int = DEFAULT_MAX_NODES) -> BranchGraph:
    """Breadth-first closure of the switch points reachable from x: the
    graph the runs alone would build, with the same node ids, edges,
    terminals and limit, as a view of x's record (``_record``)."""
    return BranchGraph(x, *_record(x, max_steps, max_nodes))


def _record(x: AlgebraicReal, max_steps: int, max_nodes: int) -> tuple[tuple[int, ...], _Below]:
    """x's root segment and the record of x's graph below the root run's
    end, each read from the field's memo (``_Memo``) when it holds it, and
    otherwise run or walked (``_grow``) and kept while the memo has room."""
    field, memo = x.field, x.field._memo
    if memo is None or len(memo.graph) >= _MEMO_CAP:
        memo = field._memo = _Memo()
    key, (held, run) = (x.den, *x.num), memo.root
    # a held root run's switch point is in the graph already, with its tracker
    rule, x_hat, eps = None, 0.0, 1.0
    if held != key:
        rule, reg, x_hat, eps = _start(x)
        length, segment, kind, end, x_hat, eps = _run(rule, x.num, reg, max_steps, {}, x_hat, eps)
        run = length, segment, kind, end
        if kind is not LIMIT:
            memo.root = key, run
    elif run[0] >= max_steps:
        run = _cut(run, max_steps)
    _, segment, kind, end = run
    # only a record below a switch point is kept, under that point's reduced form
    memo_key = (end, max_steps, max_nodes) if kind is NODE else None
    below = memo.answers.get(memo_key)
    if below is None:
        below = _grow(rule or field._rule(x.den), memo, kind, end, x_hat, eps, max_steps, max_nodes)
        if memo_key and _admit(memo, len(below.nodes) + 1):
            below.kept = True
            memo.answers[memo_key] = below
    return segment, below


def _cut(run: tuple, max_steps: int) -> tuple:
    """A stored run under a budget at or below its length L: what the
    kernel returns then (see ``_run``), a LIMIT after the run's first
    ``max_steps`` digits, whose end no caller reads."""
    _, segment, kind, end = run
    return max_steps, (segment + end if kind is TERMINAL else segment)[:max_steps], LIMIT, None


@dataclass(eq=False, slots=True)
class _Memo:
    """A field's branch memos, held in its one slot ``_memo`` and replaced
    whole (see ``_record``): the root memo ``root`` (the last point's
    reduced form and root run, or (None, None)), the switch-point graph
    ``graph`` (each switch point reached, by id, as [key, digit 0's run,
    digit 1's run, x̂, ε], with the tracker that the run which first
    reached it held there, see ``_run``), ``ids`` (those ids by reduced
    form), and the answer
    memo ``answers`` (records by (s's reduced form, max_steps, max_nodes))
    with the nodes and words it holds, ``cells``.

    Runs are held as ``_run`` returns them, a graph's with a switch
    point's id in place of its reduced form, and read under a budget at or
    below their length by ``_cut``.  A run that hit the step budget is
    never stored, and a stored run is never replaced.  The memo holds no
    element, so a field is freed with it.  A walk adds at most
    2 * max_nodes + 1 switch points, so the graph never holds more than
    _MEMO_CAP + 2 * max_nodes + 1."""

    root: tuple = (None, None)
    graph: list[list] = dataclass_field(default_factory=list)
    ids: dict[tuple[int, ...], int] = dataclass_field(default_factory=dict)
    answers: dict[tuple, _Below] = dataclass_field(default_factory=dict)
    cells: int = 0


def _admit(memo: _Memo, cells: int) -> bool:
    """Whether the answer memo of ``memo`` has room for ``cells`` more nodes
    or words, taking them if so."""
    if memo.cells + cells > _MEMO_CAP:
        return False
    memo.cells += cells
    return True


def _ref(memo: _Memo, key: tuple[int, ...], x: float, eps: float) -> int:
    """The id of the switch point with reduced form ``key`` in the graph of
    ``memo``, taking the next one if it has none, with the tracker (x̂, ε)
    that the run which reached it held there."""
    ids, graph = memo.ids, memo.graph
    ref = ids.get(key)
    if ref is None:
        ref = ids[key] = len(graph)
        graph.append([key, None, None, x, eps])
    return ref


def _target(t: int | None) -> tuple[Kind, int | None]:
    """A record's local target as (kind, id): a node id t >= 0, a terminal
    id ~t, or None for a limit."""
    return (LIMIT, None) if t is None else (TERMINAL, ~t) if t < 0 else (NODE, t)


@dataclass(eq=False, slots=True)
class _Below:
    """The graph below a root run's end under one pair of caps, and the
    answer memo's record of it when that end is a first switch point s.

    ``root`` and ``targets`` hold local targets (see ``_target``): the
    root's, and that of edge i = 2 * node id + digit.  ``nodes`` holds each
    node's reduced form (den, *num), the field graph's own key, by local
    id, in breadth-first order, and ``segments`` the digits forced on edge
    i, as its run gave them when the record was walked: a stored run's own
    segment, or one cut to the budget, so no run stored later changes it.
    Then the terminals' cycle digits, the limit, what one pass over the
    components found (see ``_answer``): the count, and which nodes reach a
    terminal; whether the memo keeps the record; and the listings read from
    it so far, relative to s, by (max_count, max_depth)."""

    root: int | None
    nodes: tuple[tuple[int, ...], ...]
    targets: tuple[int | None, ...]
    segments: tuple[tuple[int, ...], ...]
    terminals: tuple[tuple[int, ...], ...]
    limit: str | None
    count: Cardinality
    live: bytes  # by node id: 1 when some path of edges ends in a terminal edge
    kept: bool = False
    listings: dict[tuple[int, int], tuple] = dataclass_field(default_factory=dict)


def _grow(rule: _Rule, memo: _Memo, kind: Kind, end, x: float, eps: float, max_steps: int,
          max_nodes: int) -> _Below:
    """The graph below a root run that ended as (kind, end), with ``end`` a
    switch point's reduced form or a unique tail's cycle digits, and (x, eps)
    the tracker the run held there, walked breadth-first over the graph of
    ``memo`` with the kernel's ``rule`` for the point's denominator.

    A branch starts in HIGH for digit 0 and LOW for digit 1 when the
    field's certified bound puts q above φ (see ``BaseField._tracking``),
    and in its placed region otherwise.  Both
    branches of a switch point start from its entry's tracker (x̂, ε),
    stepped once as the kernel steps it, when ε < 1/4, and with no tracker
    otherwise.  Nodes take local ids as the walk reaches them, up to
    ``max_nodes``; ids (``_ref``) index the field's graph within the walk
    only."""
    den, locate, field, graph = rule.den, rule.locate, rule.field, memo.graph
    q, q_up, kappa, _, _, _, _, above_phi = field._tracker
    # past φ, q * s is HIGH and q * s - 1 LOW for every switch point s
    starts = (HIGH, LOW) if above_phi else None
    local: dict[int, int] = {}  # a node's id in the field's graph -> its local id
    refs: list[int] = []  # each node's id in the field's graph, by local id
    targets: list[int | None] = []  # by edge 2 * node id + digit
    segments: list[tuple[int, ...]] = []  # by edge
    terminal_ids: dict[tuple[int, ...], int] = {}
    limit: str | None = None

    def resolve(kind: Kind, end) -> int | None:
        nonlocal limit
        if kind is TERMINAL:
            # a cycle's digits are primitive: equal tuples, equal tail words
            return ~terminal_ids.setdefault(end, len(terminal_ids))
        t = local.get(end) if kind is NODE else None
        if t is None and kind is NODE and len(refs) < max_nodes:
            t = local[end] = len(refs)
            refs.append(end)
        if t is None:
            limit = limit or ("max_nodes" if kind is NODE else "max_steps")
        return t

    root = resolve(kind, _ref(memo, end, x, eps) if kind is NODE else end)
    for ref in refs:  # grows as switch points are found: breadth-first
        entry, n = graph[ref], None
        for slot in (1, 2):  # digit 0's run, then digit 1's
            run = entry[slot]
            if run is None:
                if n is None:
                    n, x, eps = _over(entry[0], den), entry[3], entry[4]
                    # one kernel step on from the switch point's tracker, less the digit
                    x, eps = (q * x, q_up * eps + kappa) if eps < 0.25 else (0.0, 1.0)
                # both branches of a switch point stay in the domain
                branch = field._step(n, (1 - slot) * den)
                reg = starts[slot - 1] if starts else locate(branch)
                length, segment, kind, end, x_end, eps_end = _run(rule, branch, reg, max_steps, {},
                                                                  x + (1 - slot), eps)
                if kind is NODE:
                    end = _ref(memo, end, x_end, eps_end)
                run = length, segment, kind, end
                if kind is not LIMIT:
                    entry[slot] = run
            elif run[0] >= max_steps:
                run = _cut(run, max_steps)
            segments.append(run[1])
            targets.append(resolve(run[2], run[3]))
    return _Below(root, tuple([graph[ref][0] for ref in refs]), tuple(targets), tuple(segments),
                  tuple(terminal_ids), limit, *_answer(root, targets, limit))


# ---------------------------------------------------------------------------
# classification


class Count(str, Enum):
    """The kind of a ``Cardinality``.  Compare members with ``is``."""

    FINITE = "finite"
    ALEPH0 = "aleph0"
    CONTINUUM = "continuum"
    LOWER_BOUND = "lower_bound"


_COUNT_TEXT = {Count.FINITE: "Finite({})", Count.ALEPH0: "CountablyInfinite",
               Count.CONTINUUM: "Continuum", Count.LOWER_BOUND: "LowerBound({})"}


@dataclass(frozen=True)
class Cardinality:
    """How many expansions a point has.

    ``count`` is the exact count for FINITE and a certified floor for
    LOWER_BOUND.  ``limit`` names the limit that truncated the graph behind
    a LOWER_BOUND ("max_steps" or "max_nodes"), or the level cap that
    stopped ``_at_most``'s walk ("max_levels"); it takes no part in
    equality or in the text.
    """

    kind: Count
    count: int | None = None
    limit: str | None = dataclass_field(default=None, compare=False)

    @classmethod
    def finite(cls, count: int) -> "Cardinality":
        return cls(Count.FINITE, count)

    @classmethod
    def aleph0(cls) -> "Cardinality":
        return cls(Count.ALEPH0)

    @classmethod
    def continuum(cls) -> "Cardinality":
        return cls(Count.CONTINUUM)

    @classmethod
    def lower_bound(cls, count: int, limit: str | None = None) -> "Cardinality":
        return cls(Count.LOWER_BOUND, count, limit)

    def __str__(self) -> str:
        return _COUNT_TEXT[self.kind].format(self.count)


def classify(graph: BranchGraph) -> Cardinality:
    """Cardinality of the expansion set encoded by a branch graph: the count
    that one pass (``_answer``) read off its record as the record grew."""
    return graph._below.count


def _answer(root: int | None, targets: Sequence[int | None],
            limit: str | None) -> tuple[Cardinality, bytes]:
    """The cardinality of the graph whose root is the local target ``root``
    and whose edge 2 * v + digit out of node v (ids 0..n-1) leads to local
    target ``targets[2 * v + digit]`` (see ``_target``), truncated by
    ``limit`` (None for a complete graph); and, by node id, 1 for each node
    from which some path of edges ends in a terminal edge.

    One iterative Tarjan pass: components close sinks-first, so every edge
    that leaves a component leads into a closed one, and each component's
    facts are known as it closes.  Its floor counts distinct exits, an
    unresolved edge one each (every in-domain point has an expansion): the
    exact path count of a complete cycle-free graph, and a certified floor
    for a truncated one.  It is live when an exit is a terminal edge or
    leads into a live component, cyclic when it holds an inner edge, and
    rich (continuum many paths) when it holds more inner edges than nodes.
    The facts gather node by node in ``floor``, ``live`` and ``inner``: a
    finishing node's successors are each in a closed component or in its
    own, so it adds its own edges' facts, and hands what it holds to its
    DFS parent, which shares its component, unless it is the component's
    first node and closes it.  A visited node with no component yet is on
    the stack."""
    n = len(targets) // 2
    index, low, comp_of, floor, inner = [-1] * n, [0] * n, [-1] * n, [0] * n, [0] * n
    live = bytearray(n)
    stack: list[int] = []
    counter = 0
    cyclic = rich = False

    for start in range(n):
        if index[start] >= 0:
            continue
        work: list[tuple[int, Iterator[int | None]]] = [(start, iter(targets[2 * start:2 * start + 2]))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        while work:
            v, it = work[-1]
            for w in it:
                if w is None or w < 0:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(targets[2 * w:2 * w + 2])))
                    break
                if comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                for t in targets[2 * v:2 * v + 2]:
                    if t is None or t < 0:
                        floor[v] += 1
                        live[v] |= t is not None
                    elif comp_of[t] < 0:
                        inner[v] += 1
                    else:
                        floor[v] += floor[t]
                        live[v] |= live[t]
                if low[v] < index[v]:  # not a component's first node: its parent shares it
                    parent = work[-1][0]
                    floor[parent] += floor[v]
                    live[parent] |= live[v]
                    inner[parent] += inner[v]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    continue
                total, alive, size = floor[v] or 1, live[v], len(stack)
                while True:
                    w = stack.pop()
                    comp_of[w], floor[w], live[w] = v, total, alive  # named by its first node
                    if w == v:
                        break
                if inner[v]:
                    cyclic, rich = True, rich or inner[v] > size - len(stack)

    if root is None:
        count = Cardinality.lower_bound(1, limit)
    elif root < 0:
        count = Cardinality.finite(1)
    elif limit is not None:
        count = Cardinality.lower_bound(floor[root], limit)
    elif rich:
        count = Cardinality.continuum()
    elif cyclic:
        count = Cardinality.aleph0()
    else:
        count = Cardinality.finite(floor[root])
    return count, bytes(live)


def count_expansions(x: AlgebraicReal, max_steps: int = DEFAULT_MAX_STEPS,
                     max_nodes: int = DEFAULT_MAX_NODES) -> Cardinality:
    """Classify the set of expansions of x (finite counts are exact)."""
    return classify(build_branch_graph(x, max_steps=max_steps, max_nodes=max_nodes))


# ---------------------------------------------------------------------------
# enumeration


def _walk(below: _Below, max_count: int,
          max_depth: int) -> tuple[tuple[PeriodicWord, ...], bool, str | None]:
    """The listing of ``_listing``, walked on the record of the graph below
    a root run's end, relative to that end."""
    words: list[PeriodicWord] = []
    limit = below.limit
    complete = limit is None
    if below.root is None:
        return (), False, limit
    live, targets, segments, terminals = below.live, below.targets, below.segments, below.terminals
    queue: deque[tuple[int, tuple[int, ...], int]] = deque([(below.root, (), 0)])
    while queue:
        t, prefix, depth = queue.popleft()
        if len(words) >= max_count:
            return tuple(words), False, limit or "max_count"
        if t < 0:
            words.append(PeriodicWord(prefix, terminals[~t]))
            continue
        if depth >= max_depth:
            complete, limit = False, limit or "max_depth"
            continue
        for i in (2 * t, 2 * t + 1):
            w = targets[i]
            if w is not None and (w < 0 or live[w]):
                queue.append((w, prefix + (i & 1,) + segments[i], depth + 1))
            else:
                complete = False
    return tuple(words), complete, limit


def _listing(
    x: AlgebraicReal, max_count: int, max_depth: int, max_steps: int, max_nodes: int
) -> tuple[list[PeriodicWord], bool, str | None]:
    """x's expansions in breadth-first order by number of branch decisions
    (digit 0 explored before digit 1 at each switch point), whether the list
    is exhaustive, and the limit that first cut it short ("max_steps",
    "max_nodes", "max_depth" or "max_count"), or None.

    Branches into nodes that cannot reach a unique tail are never followed
    (they would yield no word, only 2^depth paths) and make the listing
    incomplete, though no limit was hit.  The walk (``_walk``) lists the
    root run's end on its record; canonical words are unique, so each word
    of x is one of those with the root segment prepended."""
    segment, below = _record(x, max_steps, max_nodes)
    found = below.listings.get((max_count, max_depth))
    if found is None:
        found = _walk(below, max_count, max_depth)
        if below.kept and _admit(x.field._memo, len(found[0]) + 1):
            below.listings[max_count, max_depth] = found
    words, complete, limit = found
    return [w._prefixed(segment) for w in words], complete, limit


def enumerate_expansions(x: AlgebraicReal, max_count: int = DEFAULT_MAX_COUNT,
                         max_depth: int = DEFAULT_MAX_DEPTH, max_steps: int = DEFAULT_MAX_STEPS,
                         max_nodes: int = DEFAULT_MAX_NODES) -> list[PeriodicWord]:
    """Eventually periodic expansions of x, lexicographically sorted.

    When x has finitely many expansions and the limits suffice, the list is
    exhaustive.  Otherwise it holds the ``max_count`` expansions reachable
    with the fewest branch decisions.  Only expansions that end in a unique
    tail are listed: branches that cannot reach one are skipped, and the
    list is then not exhaustive.  Every returned word w satisfies
    eval_word(w) = x exactly.
    """
    return sorted(_listing(x, max_count, max_depth, max_steps, max_nodes)[0])


def bfs_expansions(x: AlgebraicReal, max_count: int = DEFAULT_MAX_COUNT,
                   max_depth: int = DEFAULT_MAX_DEPTH, max_steps: int = DEFAULT_MAX_STEPS,
                   max_nodes: int = DEFAULT_MAX_NODES) -> tuple[list[PeriodicWord], bool]:
    """Expansions of x in discovery order (fewest branch decisions first,
    digit 0 before digit 1), plus a flag that is True when the list is
    exhaustive -- i.e. no step, node, depth, or count limit cut it short.
    Branches that cannot reach a unique tail are skipped without being
    walked, and skipping one makes the list incomplete (flag False).
    """
    words, complete, _ = _listing(x, max_count, max_depth, max_steps, max_nodes)
    return words, complete


# ---------------------------------------------------------------------------
# prefix-count oracle

def viable_prefix_counts(x: AlgebraicReal, max_depth: int) -> list[int]:
    """For each n = 1..max_depth, the number of binary prefixes p of length n
    with 0 <= q^n x - sum(p_i q^(n-i)) <= 1/(q-1).

    This is exactly the number of distinct length-n prefixes among the
    expansions of x, computed by pure interval filtering -- independent of
    the branch-graph machinery, which it cross-checks.  A remainder r in the
    domain extends by digit d exactly when q*r - d stays in it, that is when
    r <= 1/(q(q-1)) for d = 0 and r >= 1/q for d = 1: by r's region.  The
    level walk (``_levels``) takes the counts.
    """
    counts, _ = _levels(x, max_depth, math.inf)
    return counts + [counts[-1]] * (max_depth - len(counts))


def _levels(x: AlgebraicReal, max_levels: int, ceiling: float) -> tuple[list[int], bool]:
    """The prefix counts of x for n = 1, 2, ... (see ``viable_prefix_counts``)
    up to ``max_levels`` of them, or up to the first that passes
    ``ceiling``; and whether the last is x's exact number of expansions.

    A level maps each remainder, as a numerator tuple over x's denominator,
    to its prefix count, and it determines the next.  The walk stops at the
    first level equal to an earlier one: from there the counts repeat, so
    the last count is exact.  Counts never decrease (every remainder in the
    domain has a viable digit), so a repeat falls inside the current run of
    equal counts, and only that run's levels are kept.

    A level of one remainder outside the switch region has one child, with
    the same count: such a forced stretch is the orbit kernel's run
    (``_run``), to its switch point, where the walk goes on over
    levels, or to a closed cycle, where the count is exact.  A stretch ends
    the run of equal counts it is in (a switch point doubles the count), and
    no level of several remainders equals one of one, so a repeat inside a
    stretch is a repeat of one of the stretch's own remainders.  Like the
    walk, the stretch reads no memo.  A stretch from x starts from the
    tracker of x's placement (``_start``), and a later one with none.
    """
    if max_levels < 1:
        raise ValueError("depth must be >= 1")
    rule, reg, x_hat, eps = _start(x)
    step, locate, den, minus_one = x.field._step, rule.locate, x.den, -x.den
    level: dict[tuple[int, ...], int] = {x.num: 1}
    counts: list[int] = []
    run_count = 1
    seen: set[frozenset] = set()  # the levels of the current run of equal counts
    while len(counts) < max_levels:
        # reg: the region of a level of one remainder once placed, else None
        if reg is None and len(level) == 1:
            reg = locate(next(iter(level)))
        if reg is LOW or reg is HIGH:
            (n,) = level
            length, _, kind, end, _, _ = _run(rule, n, reg, max_levels - len(counts), {},
                                              x_hat, eps)
            counts += [level[n]] * length
            if kind is not NODE:  # a closed cycle, or the level cap inside the stretch
                return counts, kind is TERMINAL
            level, reg = {_over(end, den): counts[-1]}, SWITCH
        nxt: dict[tuple[int, ...], int] = {}
        for n, mult in level.items():
            if len(level) > 1:
                reg = locate(n)
            if reg is SWITCH:
                r = step(n)
                nxt[r] = nxt.get(r, 0) + mult
                r = step(n, minus_one)
            else:
                r = step(n, 0 if reg is LOW else minus_one)
            nxt[r] = nxt.get(r, 0) + mult
        count = sum(nxt.values())
        counts.append(count)
        if count > ceiling:
            return counts, False
        if count == run_count:
            if not seen:
                seen.add(frozenset(level.items()))
            key = frozenset(nxt.items())
            if key in seen:
                return counts, True
            seen.add(key)
        else:
            run_count = count
            seen.clear()
        # only x was placed before: a later stretch starts with no tracker
        level, reg, eps = nxt, None, 1.0
    return counts, False


def _at_most(x: AlgebraicReal, k: int, max_levels: int) -> Cardinality:
    """x's exact number of expansions when it is at most k, or a floor above
    k, decided by the level walk (``_levels``) within ``max_levels`` levels.

    Finite(c) when the walk stops with an exact count c <= k;
    LowerBound(c) once a prefix count c passes k, a certified floor since
    distinct viable prefixes extend to distinct expansions; and
    LowerBound(c, "max_levels") when the cap leaves both open.  Reads no
    memo."""
    if k < 1 or max_levels < 1:
        raise ValueError("k and max_levels must be >= 1")
    counts, exact = _levels(x, max_levels, k)
    if counts[-1] > k or not exact:
        return Cardinality.lower_bound(counts[-1], None if counts[-1] > k else "max_levels")
    return Cardinality.finite(counts[-1])
