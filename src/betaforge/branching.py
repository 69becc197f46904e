"""Branching analysis of expansions: how many digit streams a point has.

A point x in [0, 1/(q-1)] follows a forced orbit under t0/t1 until it hits
the switch interval, where both branches stay in the domain.  Collecting the
switch points reachable from x into a graph (two outgoing edges per switch
point, each labelled with the digits forced until the next switch point or a
unique tail) turns the set of expansions of x into the set of infinite paths
from the root.  Cardinality classification is then graph-shaped:

    no cycle reachable            -> finitely many expansions (path count)
    exactly one cycle per SCC     -> countably infinitely many
    an SCC with two cycles        -> continuum many

Independent of all that, ``viable_prefix_counts`` counts, for each depth n,
the binary prefixes whose remainder stays in the domain; it serves as a
cross-check oracle for the graph-based counts.

All three walk orbits in one private kernel, ``_Orbits``.  It holds every
value reached from x as raw integer numerators over x's own denominator D
(q is an algebraic integer, so q * (n / D) - d = (q * n - d * D) / D),
steps them with the field's compiled step, and decides regions with
``words._region_rule`` for that D, which the field keeps per D up to a
bound: the field's compiled filter sum against the switch bounds' cached
scaled sums, and, when the filter cannot decide, the exact comparison of
the reduced element.  ``_reduced`` builds an element only where a value
leaves the kernel: graph nodes, switch points, unique-tail cycles and the
orbit a run returns.  x itself is placed by ``words.region``, which
compares the element with the domain's bounds on the scaled sum it caches.

Points of one base share switch points (in a Pisot base, those over one
denominator are finitely many), so each field keeps a branch memo: for each
switch point a graph has expanded, keyed by its reduced form (den, *num),
the two forced runs out of it, each with its segment, its end (a switch
point's reduced form, or a unique tail's cycle digits) and its length.  A
run's outcome depends on the value alone, not on the denominator it is
carried over, so a graph reads a stored run instead of running it whenever
the run would end the same way under the graph's step budget.  A root memo
keeps the root run of the last point asked, the same way, keyed by the
point's reduced form: a count and then a listing of one point make one
root run between them, and the memo holds one run, never more.

Points of one base also share first switch points, so each field keeps an
answer memo too.  Below x's root run, x's graph depends only on the run's
end s (x's first switch point) and the caps: every node id, edge, terminal
and limit is that of s's graph.  That graph is stored in one shape only, a
record (``_Below``): each node's reduced form, the edges, the terminals and
the limit.  ``_grow`` builds the record, and ``_record`` keeps it under
(s's reduced form, max_steps, max_nodes) while the memo has room.  The
record also keeps what was read from the graph: ``classify``'s answer, and
each listing of ``_listing`` by (max_count, max_depth), relative to s.  A
point's listing is s's listing with the root segment prepended: canonical
words are unique, so the prefixed word is the one a walk from x would
build.  ``count_expansions`` classifies the graph ``build_branch_graph``
assembles from the record (one element per node), and ``classify`` reads
the record's count.  A listing is walked on the record itself, or read
straight off it when it holds one: no listing assembles a graph.  A record
the memo does not admit keeps no answer.

The memos hold ints, tuples, ``Edge``, ``Cardinality`` and ``PeriodicWord``
records only, never an element or a graph, so a field is freed with them.
The root memo holds one point and the branch memo at most ``_MEMO_CAP``
switch points; neither stores a run that hit the step budget.  The answer memo admits
records and listings while the nodes and words it holds total at most
``_MEMO_CAP``.
Full memos still serve what they hold.
``deterministic_run`` and ``viable_prefix_counts`` read no memo: the prefix
oracle stays an independent check of the graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Iterator

from .numberfield import AlgebraicReal, BaseField, _reduced
from .words import PeriodicWord, Region, _region_rule, region

DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_NODES = 10_000
# switch points a field's branch memo admits, about 6x the nodes of every
# canonical q2 word with preperiod <= 6 and period <= 4 at caps 250/64; and
# nodes plus listed words its answer memo holds in all.  A full memo still
# serves what it holds.
_MEMO_CAP = 1 << 14


class Kind(str, Enum):
    """How a forced run ends, and where a graph edge leads: a switch point,
    a unique tail, or a step or node limit.  Compare members with ``is``."""

    NODE = "node"
    TERMINAL = "terminal"
    LIMIT = "limit"


NODE, TERMINAL, LIMIT = Kind


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


class _Orbits:
    """The orbit kernel: forced runs from values over one fixed denominator.

    q is an algebraic integer, so q * (n / D) - d = (q * n - d * D) / D: every
    value reached from x stays over x's denominator D as a raw numerator
    tuple.  For that D, equal values have equal tuples, so cycles, graph
    nodes and oracle levels key on tuples of ints.  ``value`` reduces a tuple
    to an element, only where a value leaves the kernel.

    Every value the kernel makes lies in the domain: a forced digit and
    either digit at a switch point keep it there (see ``words``).  So its
    regions compare with the switch bounds only."""

    __slots__ = ("field", "den", "locate")

    def __init__(self, x: AlgebraicReal):
        self.field, self.den = x.field, x.den
        self.locate = _region_rule(x.field, x.den)

    def step(self, n: tuple[int, ...], digit: int) -> tuple[int, ...]:
        return self.field._step(n, -digit * self.den)

    def value(self, n: tuple[int, ...]) -> AlgebraicReal:
        return _reduced(self.field, n, self.den)

    def run(self, n: tuple[int, ...], reg: Region, max_steps: int):
        """Follow the forced branch from ``n`` (in region ``reg``) until a
        switch point, a closed non-branching cycle, or the step budget.

        Returns (kind, segment, end, seen): ``seen`` maps each visited tuple
        to its step, in order; ``end`` is the switch point's tuple (NODE),
        the cycle's digits (TERMINAL, the cycle starting at step
        ``len(segment)``), or the tuple after the last step (LIMIT)."""
        step, locate = self.field._step, self.locate
        lows = (0, -self.den)
        seen: dict[tuple[int, ...], int] = {}
        digits: list[int] = []
        for _ in range(max_steps):
            if reg is Region.SWITCH:
                return NODE, tuple(digits), n, seen
            at = seen.get(n)
            if at is not None:
                return TERMINAL, tuple(digits[:at]), tuple(digits[at:]), seen
            seen[n] = len(seen)
            d = 0 if reg is Region.LOW else 1
            digits.append(d)
            n = step(n, lows[d])
            reg = locate(n)
        return LIMIT, tuple(digits), n, seen

    def shaped(self, n: tuple[int, ...], reg: Region, max_steps: int) -> tuple:
        """``run`` in the memos' shape (length, segment, kind, end): a switch
        point's end as its reduced form (den, *num), and a unique tail's
        cycle counted in the length.  A run of length L is what ``run``
        returns exactly when L < max_steps."""
        kind, segment, end, _ = self.run(n, reg, max_steps)
        if kind is NODE:
            v = self.value(end)
            end = (v.den, *v.num)
        length = len(segment) + len(end) if kind is TERMINAL else len(segment)
        return length, segment, kind, end


def _start(x: AlgebraicReal) -> tuple[_Orbits, Region]:
    """The kernel for x and x's region; a point outside the domain raises."""
    reg = region(x)
    if reg is Region.OUTSIDE:
        raise OutsideDomain(f"{x} is outside [0, 1/(q-1)]")
    return _Orbits(x), reg


def deterministic_run(x: AlgebraicReal, max_steps: int = DEFAULT_MAX_STEPS) -> RunOutcome:
    """Follow the forced branch from x until a switch point, a closed
    non-branching cycle, or the step budget."""
    orbits, reg = _start(x)
    kind, segment, end, seen = orbits.run(x.num, reg, max_steps)
    orbit = [orbits.value(n) for n in seen]
    if kind is TERMINAL:
        at = len(segment)
        return RunOutcome(segment, UniqueTail(tuple(orbit[at:]), PeriodicWord((), end)),
                          tuple(orbit[:at + 1]))
    v = orbits.value(end)
    return RunOutcome(segment, SwitchHit(v) if kind is NODE else StepLimit(max_steps),
                      (*orbit, v))


# ---------------------------------------------------------------------------
# branch graph


@dataclass(frozen=True, slots=True)
class Edge:
    """One branch out of a switch point: the chosen digit, the digits forced
    after it, and where that leads (``kind``; ``target`` is the node or
    terminal id, None for a limit)."""

    digit: int
    segment: tuple[int, ...]
    kind: Kind
    target: int | None


@dataclass
class BranchGraph:
    """All switch points reachable from a start value, with forced segments
    on the edges and unique tails collected as terminals.  ``limit`` names
    the limit that first truncated the graph: "max_steps" or "max_nodes".
    Treat a graph from ``build_branch_graph`` as read-only: ``classify`` may
    answer it from the answer-memo record it carries."""

    field: BaseField
    start: AlgebraicReal
    root_segment: tuple[int, ...]
    root_kind: Kind
    root_target: int | None
    nodes: dict[int, AlgebraicReal] = dataclass_field(default_factory=dict)
    edges: dict[int, dict[int, Edge]] = dataclass_field(default_factory=dict)
    terminals: dict[int, PeriodicWord] = dataclass_field(default_factory=dict)
    truncated: bool = False
    limit: str | None = None
    # the answer-memo record of the graph below the root's end, if kept
    _below: _Below | None = dataclass_field(default=None, repr=False, compare=False)


def build_branch_graph(
    x: AlgebraicReal,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> BranchGraph:
    """Breadth-first closure of the switch points reachable from x.

    The graph is assembled from x's root segment and the record of the
    graph below the root run's end (see ``_record``): the one the runs
    alone would build, with the same node ids, edges, terminals and
    limit."""
    segment, below, kept = _record(x, max_steps, max_nodes)
    return below.graph(x, segment, kept)


def _record(
    x: AlgebraicReal, max_steps: int, max_nodes: int
) -> tuple[tuple[int, ...], _Below, bool]:
    """x's root segment, the record of x's graph below the root run's end,
    and whether the answer memo keeps that record.

    x's root run is read from the field's root memo, in the branch memo's
    shape and under its rule (see ``_Orbits.shaped``), when x is the last
    point whose root run was stored; otherwise it is run, and stored in
    place of that one unless it hit the step budget.  When it ends at a
    switch point s whose graph under these caps the answer memo holds, that
    record is returned.  Otherwise the record grows from the root run's end (see
    ``_grow``), and the memo keeps it while it has room."""
    field = x.field
    roots, key = field._roots, (x.den, *x.num)
    run = roots.get(key)
    orbits = None
    if run is None or run[0] >= max_steps:
        orbits, reg = _start(x)
        run = orbits.shaped(x.num, reg, max_steps)
        if run[2] is not LIMIT:
            roots.clear()
            roots[key] = run
    _, segment, kind, end = run
    if kind is not NODE:
        return segment, _grow(orbits or _Orbits(x), kind, end, max_steps, max_nodes), False
    key = (end, max_steps, max_nodes)
    below = field._answers.get(key)
    if below is None:
        below = _grow(orbits or _Orbits(x), NODE, end, max_steps, max_nodes)
        if not _admit(field, len(below.keys) + 1):
            return segment, below, False
        field._answers[key] = below
    return segment, below, True


def _admit(field: BaseField, cells: int) -> bool:
    """Whether the field's answer memo has room for ``cells`` more nodes or
    words, taking them if so."""
    if field._answer_cells + cells > _MEMO_CAP:
        return False
    field._answer_cells += cells
    return True


@dataclass(eq=False, slots=True)
class _Below:
    """The graph below a root run's end under one pair of caps, and the
    answer memo's record of it when that end is a first switch point s:
    each node's reduced form (den, *num) by id, the edges out of each node,
    the terminals, how the root resolves, the limit; and the answers read
    from the graph so far (the count, and listings relative to s by
    (max_count, max_depth))."""

    root: tuple[Kind, int | None]
    keys: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[Edge, ...], ...]  # (digit 0's edge, digit 1's) by node id
    terminals: tuple[PeriodicWord, ...]
    limit: str | None
    card: Cardinality | None = None
    listings: dict[tuple[int, int], tuple] = dataclass_field(default_factory=dict)

    def graph(self, x: AlgebraicReal, segment: tuple[int, ...], kept: bool) -> BranchGraph:
        """x's graph, for x whose root run forced ``segment`` and ended where
        this record starts; ``kept`` when the answer memo holds the record,
        which then keeps the answers read from the graph."""
        field = x.field
        return BranchGraph(
            field=field, start=x, root_segment=segment,
            root_kind=self.root[0], root_target=self.root[1],
            nodes={nid: AlgebraicReal(field, k[1:], k[0]) for nid, k in enumerate(self.keys)},
            edges={nid: {0: e0, 1: e1} for nid, (e0, e1) in enumerate(self.edges)},
            terminals=dict(enumerate(self.terminals)),
            truncated=self.limit is not None, limit=self.limit,
            _below=self if kept else None)


def _grow(orbits: _Orbits, kind: Kind, end, max_steps: int, max_nodes: int) -> _Below:
    """The graph below a root run that ended as (kind, end), with ``end`` in
    the branch memo's form (a switch point's reduced form, or a unique
    tail's cycle digits), grown by expanding switch points breadth-first.

    Each branch is a run in the branch memo's shape (see ``_Orbits.shaped``):
    a stored run of length L stands for the run exactly when L < max_steps,
    and is run again otherwise.  A fresh run is resolved like a stored one,
    and stored unless it hit the step budget."""
    den, locate = orbits.den, orbits.locate
    memo = orbits.field._branches
    node_ids: dict[tuple[int, ...], int] = {}
    keys: list[tuple[int, ...]] = []  # each node's reduced form (den, *num), by id
    terminal_ids: dict[tuple[int, ...], int] = {}
    limit: str | None = None

    def resolve(kind: Kind, end) -> tuple[Kind, int | None]:
        nonlocal limit
        if kind is NODE:
            nid = node_ids.get(end)
            if nid is None:
                if len(keys) >= max_nodes:
                    limit = limit or "max_nodes"
                    return LIMIT, None
                nid = node_ids[end] = len(keys)
                keys.append(end)
            return NODE, nid
        if kind is TERMINAL:
            # a cycle's digits are primitive: equal tuples, equal tail words
            return TERMINAL, terminal_ids.setdefault(end, len(terminal_ids))
        limit = limit or "max_steps"
        return LIMIT, None

    root = resolve(kind, end)
    edges: list[tuple[Edge, ...]] = []
    for key in keys:  # grows as switch points are found: breadth-first
        # the node over x's denominator D: its reduced denominator divides D
        n = tuple([c * (den // key[0]) for c in key[1:]])
        stored = memo.get(key, (None, None))
        runs, fresh = list(stored), False
        out = []
        for digit in (0, 1):
            run = stored[digit]
            if run is None or run[0] >= max_steps:
                # both branches of a switch point stay in the domain
                branch = orbits.step(n, digit)
                run = orbits.shaped(branch, locate(branch), max_steps)
                if stored[digit] is None and run[2] is not LIMIT:
                    runs[digit], fresh = run, True
            _, segment, kind, end = run
            out.append(Edge(digit, segment, *resolve(kind, end)))
        if fresh and (key in memo or len(memo) < _MEMO_CAP):
            memo[key] = tuple(runs)
        edges.append(tuple(out))
    return _Below(root, tuple(keys), tuple(edges),
                  tuple(PeriodicWord((), cycle) for cycle in terminal_ids), limit)


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
    a LOWER_BOUND ("max_steps" or "max_nodes"); it takes no part in
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


def _node_adjacency(graph: BranchGraph) -> dict[int, list[int]]:
    return {
        nid: [e.target for e in out.values() if e.kind is NODE]
        for nid, out in graph.edges.items()
    }


def _sccs(adj: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components, emitted sinks-first (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0

    for root in adj:
        if root in index:
            continue
        work: list[tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def _path_floor(graph: BranchGraph, comps: list[list[int]]) -> int:
    """Distinct exits per SCC of the condensation ``comps`` (sinks first),
    unresolved edges contributing one each (every in-domain point has an
    expansion): the exact path count of a complete cycle-free graph, and a
    certified floor for a truncated one."""
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    floor: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        total = 0
        for v in comp:
            for e in graph.edges[v].values():
                if e.kind is not NODE:
                    total += 1
                elif comp_of[e.target] != ci:
                    total += floor[comp_of[e.target]]
        floor[ci] = max(total, 1)
    return floor[comp_of[graph.root_target]]


def classify(graph: BranchGraph) -> Cardinality:
    """Cardinality of the expansion set encoded by a branch graph; a graph
    with an answer-memo record reads it from there, or classifies once and
    keeps it."""
    below = graph._below
    if below is None:
        return _cardinality(graph)
    if below.card is None:
        below.card = _cardinality(graph)
    return below.card


def _cardinality(graph: BranchGraph) -> Cardinality:
    if graph.root_kind is TERMINAL:
        return Cardinality.finite(1)
    if graph.root_kind is LIMIT:
        return Cardinality.lower_bound(1, graph.limit)
    adj = _node_adjacency(graph)
    comps = _sccs(adj)
    if graph.truncated:
        return Cardinality.lower_bound(_path_floor(graph, comps), graph.limit)

    has_cycle = False
    for comp in comps:
        members = set(comp)
        intra = sum(1 for v in comp for w in adj[v] if w in members)
        if intra > len(comp):
            return Cardinality.continuum()
        if len(comp) > 1 or intra:
            has_cycle = True
    if has_cycle:
        return Cardinality.aleph0()
    return Cardinality.finite(_path_floor(graph, comps))


def count_expansions(
    x: AlgebraicReal,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Cardinality:
    """Classify the set of expansions of x (finite counts are exact)."""
    return classify(build_branch_graph(x, max_steps=max_steps, max_nodes=max_nodes))


# ---------------------------------------------------------------------------
# enumeration


def _live_nodes(below: _Below) -> set[int]:
    """Nodes from which some path of edges ends in a terminal edge."""
    parents: dict[int, list[int]] = {}
    live: set[int] = set()
    for nid, out in enumerate(below.edges):
        for e in out:
            if e.kind is TERMINAL:
                live.add(nid)
            elif e.kind is NODE:
                parents.setdefault(e.target, []).append(nid)
    stack = list(live)
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in live:
                live.add(parent)
                stack.append(parent)
    return live


def _walk(
    below: _Below, max_count: int, max_depth: int
) -> tuple[tuple[PeriodicWord, ...], bool, str | None]:
    """The listing of ``_listing``, walked on the record of the graph below
    a root run's end, relative to that end."""
    words: list[PeriodicWord] = []
    limit = below.limit
    complete = limit is None
    if below.root[0] is LIMIT:
        return (), False, limit
    live = _live_nodes(below)
    queue: deque[tuple[Kind, int | None, tuple[int, ...], int]] = deque([(*below.root, (), 0)])
    while queue:
        kind, target, prefix, depth = queue.popleft()
        if len(words) >= max_count:
            return tuple(words), False, limit or "max_count"
        if kind is TERMINAL:
            tail = below.terminals[target]
            words.append(PeriodicWord(prefix + tail.preperiod, tail.period))
            continue
        if depth >= max_depth:
            complete, limit = False, limit or "max_depth"
            continue
        for digit in (0, 1):
            e = below.edges[target][digit]
            if e.kind is TERMINAL or (e.kind is NODE and e.target in live):
                queue.append((e.kind, e.target, prefix + (digit,) + e.segment, depth + 1))
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
    incomplete, though no limit was hit.  The walk lists the root run's end;
    canonical words are unique, so each word of x is one of those with the
    root segment prepended.  The walk reads the record of the graph below
    the root run (see ``_record``) and assembles no graph; a record that
    holds the listing serves it, and otherwise the walk runs once, and a
    kept record keeps its words while the memo has room for them."""
    segment, below, kept = _record(x, max_steps, max_nodes)
    found = below.listings.get((max_count, max_depth))
    if found is None:
        found = _walk(below, max_count, max_depth)
        if kept and _admit(x.field, len(found[0]) + 1):
            below.listings[max_count, max_depth] = found
    words, complete, limit = found
    return [w._prefixed(segment) for w in words], complete, limit


def enumerate_expansions(
    x: AlgebraicReal,
    max_count: int = 64,
    max_depth: int = 256,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> list[PeriodicWord]:
    """Eventually periodic expansions of x, lexicographically sorted.

    When x has finitely many expansions and the limits suffice, the list is
    exhaustive.  Otherwise it holds the ``max_count`` expansions reachable
    with the fewest branch decisions.  Only expansions that end in a unique
    tail are listed: branches that cannot reach one are skipped, and the
    list is then not exhaustive.  Every returned word w satisfies
    eval_word(w) = x exactly.
    """
    return sorted(_listing(x, max_count, max_depth, max_steps, max_nodes)[0])


def bfs_expansions(
    x: AlgebraicReal,
    max_count: int = 64,
    max_depth: int = 256,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[list[PeriodicWord], bool]:
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
    r <= 1/(q(q-1)) for d = 0 and r >= 1/q for d = 1: by r's region.

    The walk stops at the first level (remainder -> prefix count) equal to
    an earlier one, and the rest of the depth repeats the last count.  That
    is exact: a level determines the next, so from a repeat on the counts
    repeat with it; and counts never decrease (every remainder in the domain
    has a viable digit), so a repeat falls inside the current run of equal
    counts.  Only that run's levels are kept.
    """
    if max_depth < 1:
        raise ValueError("depth must be >= 1")
    orbits, _ = _start(x)
    step, locate, minus_one = orbits.field._step, orbits.locate, -orbits.den
    # remainders, as numerator tuples over x's denominator -> prefix count
    level: dict[tuple[int, ...], int] = {x.num: 1}
    counts: list[int] = []
    run_count = 1
    seen: set[frozenset] = set()  # the levels of the current run of equal counts
    while len(counts) < max_depth:
        nxt: dict[tuple[int, ...], int] = {}
        for n, mult in level.items():
            reg = locate(n)
            if reg is Region.SWITCH:
                r = step(n)
                nxt[r] = nxt.get(r, 0) + mult
                r = step(n, minus_one)
            else:
                r = step(n, 0 if reg is Region.LOW else minus_one)
            nxt[r] = nxt.get(r, 0) + mult
        count = sum(nxt.values())
        counts.append(count)
        if count == run_count:
            if not seen:
                seen.add(frozenset(level.items()))
            key = frozenset(nxt.items())
            if key in seen:
                counts += [count] * (max_depth - len(counts))
                break
            seen.add(key)
        else:
            run_count = count
            seen.clear()
        level = nxt
    return counts
