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
(q is an algebraic integer, so q * (n / D) - d = (q * n - d * D) / D), and
decides regions with ``words._region_rule`` for that D: the integer filter
against the domain bounds' cached scaled sums, and, when the filter cannot
decide, the exact comparison of the reduced element.  ``_reduced`` builds
an element only where a value leaves the kernel: graph nodes, switch
points, unique-tail cycles and the orbit a run returns.

Points of one base share switch points (in a Pisot base, those over one
denominator are finitely many), so each field keeps a branch memo: for each
switch point a graph has expanded, keyed by its reduced form (den, *num),
the two forced runs out of it, each with its segment, its end (a switch
point's reduced form, or a unique tail's cycle digits) and its length.  A
run's outcome depends on the value alone, not on the denominator it is
carried over, so ``build_branch_graph`` reads a stored run instead of
running it whenever the run would end the same way under the graph's step
budget.  ``deterministic_run`` and ``viable_prefix_counts`` never read the
memo: the prefix oracle stays an independent check of the graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator

from .numberfield import AlgebraicReal, BaseField, _reduced, _times_q
from .words import PeriodicWord, Region, _region_rule, region

DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_NODES = 10_000
# switch points a field's branch memo admits; a full memo still serves its
# entries.  About 6x the nodes of every canonical q2 word with preperiod <= 6
# and period <= 4 at caps 250/64.
_MEMO_CAP = 1 << 14

# how a forced run ends, and where a graph edge leads
NODE = "node"
TERMINAL = "terminal"
LIMIT = "limit"


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

    __slots__ = ("field", "den", "row", "locate")

    def __init__(self, x: AlgebraicReal):
        self.field, self.den = x.field, x.den
        self.row = x.field._reduction_rows[0]
        self.locate = _region_rule(x.field, x.den, inside=True)

    def step(self, n: tuple[int, ...], digit: int) -> tuple[int, ...]:
        return _times_q(n, self.row, -digit * self.den)

    def value(self, n: tuple[int, ...]) -> AlgebraicReal:
        return _reduced(self.field, n, self.den)

    def run(self, n: tuple[int, ...], reg: Region, max_steps: int):
        """Follow the forced branch from ``n`` (in region ``reg``) until a
        switch point, a closed non-branching cycle, or the step budget.

        Returns (kind, segment, end, seen): ``seen`` maps each visited tuple
        to its step, in order; ``end`` is the switch point's tuple (NODE),
        the cycle's digits (TERMINAL, the cycle starting at step
        ``len(segment)``), or the tuple after the last step (LIMIT)."""
        row, locate = self.row, self.locate
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
            n = _times_q(n, row, lows[d])
            reg = locate(n)
        return LIMIT, tuple(digits), n, seen


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
    if kind == TERMINAL:
        at = len(segment)
        return RunOutcome(segment, UniqueTail(tuple(orbit[at:]), PeriodicWord((), end)),
                          tuple(orbit[:at + 1]))
    v = orbits.value(end)
    return RunOutcome(segment, SwitchHit(v) if kind == NODE else StepLimit(max_steps),
                      (*orbit, v))


# ---------------------------------------------------------------------------
# branch graph


@dataclass(frozen=True)
class Edge:
    """One branch out of a switch point: the chosen digit, the digits forced
    after it, and where that leads (``kind`` is node/terminal/limit)."""

    digit: int
    segment: tuple[int, ...]
    kind: str
    target: int | None


@dataclass
class BranchGraph:
    """All switch points reachable from a start value, with forced segments
    on the edges and unique tails collected as terminals.  ``limit`` names
    the limit that first truncated the graph: "max_steps" or "max_nodes"."""

    field: BaseField
    start: AlgebraicReal
    root_segment: tuple[int, ...]
    root_kind: str
    root_target: int | None
    nodes: dict[int, AlgebraicReal] = dataclass_field(default_factory=dict)
    edges: dict[int, dict[int, Edge]] = dataclass_field(default_factory=dict)
    terminals: dict[int, PeriodicWord] = dataclass_field(default_factory=dict)
    truncated: bool = False
    limit: str | None = None

    def _truncate(self, limit: str) -> None:
        if not self.truncated:
            self.truncated, self.limit = True, limit


def build_branch_graph(
    x: AlgebraicReal,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> BranchGraph:
    """Breadth-first closure of the switch points reachable from x.

    The two branches of each switch point come from the field's branch
    memo when it holds them: a stored run of length L (its segment, plus
    its cycle for a unique tail) is what ``_Orbits.run`` returns exactly
    when L < max_steps, and is run again otherwise.  Runs that hit the step
    budget are not stored.  The graph is the one the runs alone would build:
    the same node ids, edges, terminals and limit."""
    orbits, reg = _start(x)
    field, den = x.field, orbits.den
    memo = field._branches
    node_ids: dict[tuple[int, ...], int] = {}
    keys: list[tuple[int, ...]] = []  # each node's reduced form (den, *num), by id
    terminal_ids: dict[tuple[int, ...], int] = {}
    queue: deque[tuple[int, tuple[int, ...]]] = deque()
    graph: BranchGraph

    def resolve(kind: str, end, key: tuple[int, ...] | None = None) -> tuple[str, int | None]:
        # ``key``: a NODE end's reduced form, when the memo supplied it
        if kind == NODE:
            nid = node_ids.get(end)
            if nid is None:
                if len(node_ids) >= max_nodes:
                    graph._truncate("max_nodes")
                    return LIMIT, None
                nid = node_ids[end] = len(node_ids)
                if key is None:
                    v = orbits.value(end)
                    key = (v.den, *v.num)
                else:
                    v = AlgebraicReal(field, key[1:], key[0])
                graph.nodes[nid] = v
                keys.append(key)
                queue.append((nid, end))
            return NODE, nid
        if kind == TERMINAL:
            # a cycle's digits are primitive: equal tuples, equal tail words
            tid = terminal_ids.get(end)
            if tid is None:
                tid = terminal_ids[end] = len(terminal_ids)
                graph.terminals[tid] = PeriodicWord((), end)
            return TERMINAL, tid
        graph._truncate("max_steps")
        return LIMIT, None

    kind, segment, end, _ = orbits.run(x.num, reg, max_steps)
    graph = BranchGraph(field=x.field, start=x, root_segment=segment,
                        root_kind="", root_target=None)
    graph.root_kind, graph.root_target = resolve(kind, end)

    locate = orbits.locate
    while queue:
        nid, n = queue.popleft()
        key = keys[nid]
        stored = memo.get(key, (None, None))
        runs, fresh = list(stored), False
        out: dict[int, Edge] = {}
        for digit in (0, 1):
            known = stored[digit]
            if known is not None and known[0] < max_steps:
                _, segment, kind, end = known
                target = None
                if kind == NODE:
                    # the target's reduced form: its denominator divides D
                    target, end = end, tuple([c * (den // end[0]) for c in end[1:]])
                out[digit] = Edge(digit, segment, *resolve(kind, end, target))
                continue
            # both branches of a switch point stay in the domain
            branch = orbits.step(n, digit)
            kind, segment, end, _ = orbits.run(branch, locate(branch), max_steps)
            edge = out[digit] = Edge(digit, segment, *resolve(kind, end))
            if known is not None or kind == LIMIT:
                continue
            if kind == TERMINAL:
                runs[digit] = (len(segment) + len(end), segment, TERMINAL, end)
            else:
                if edge.kind == NODE:
                    target = keys[edge.target]
                else:  # a new switch point past max_nodes
                    v = orbits.value(end)
                    target = (v.den, *v.num)
                runs[digit] = (len(segment), segment, NODE, target)
            fresh = True
        if fresh and (key in memo or len(memo) < _MEMO_CAP):
            memo[key] = tuple(runs)
        graph.edges[nid] = out
    return graph


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Cardinality:
    """How many expansions a point has.

    kind is one of "finite", "aleph0", "continuum", "lower_bound"; ``count``
    is the exact count for "finite" and a certified floor for "lower_bound".
    """

    kind: str
    count: int | None = None

    @classmethod
    def finite(cls, count: int) -> "Cardinality":
        return cls("finite", count)

    @classmethod
    def aleph0(cls) -> "Cardinality":
        return cls("aleph0")

    @classmethod
    def continuum(cls) -> "Cardinality":
        return cls("continuum")

    @classmethod
    def lower_bound(cls, count: int) -> "Cardinality":
        return cls("lower_bound", count)

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.count})"
        if self.kind == "aleph0":
            return "CountablyInfinite"
        if self.kind == "continuum":
            return "Continuum"
        return f"LowerBound({self.count})"


def _node_adjacency(graph: BranchGraph) -> dict[int, list[int]]:
    return {
        nid: [e.target for e in out.values() if e.kind == NODE and e.target is not None]
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
                if e.kind in (TERMINAL, LIMIT):
                    total += 1
                elif e.kind == NODE and comp_of[e.target] != ci:
                    total += floor[comp_of[e.target]]
        floor[ci] = max(total, 1)
    return floor[comp_of[graph.root_target]]


def classify(graph: BranchGraph) -> Cardinality:
    """Cardinality of the expansion set encoded by a branch graph."""
    if graph.root_kind == TERMINAL:
        return Cardinality.finite(1)
    if graph.root_kind == LIMIT:
        return Cardinality.lower_bound(1)
    adj = _node_adjacency(graph)
    comps = _sccs(adj)
    if graph.truncated:
        return Cardinality.lower_bound(_path_floor(graph, comps))

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


def _live_nodes(graph: BranchGraph) -> set[int]:
    """Nodes from which some path of edges ends in a terminal edge."""
    parents: dict[int, list[int]] = {}
    live: set[int] = set()
    for nid, out in graph.edges.items():
        for e in out.values():
            if e.kind == TERMINAL:
                live.add(nid)
            elif e.kind == NODE:
                parents.setdefault(e.target, []).append(nid)
    stack = list(live)
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in live:
                live.add(parent)
                stack.append(parent)
    return live


def _discover(
    graph: BranchGraph, max_count: int, max_depth: int
) -> tuple[list[PeriodicWord], bool, str | None]:
    """Expansions in breadth-first order by number of branch decisions
    (digit 0 explored before digit 1 at each switch point).  The boolean
    reports completeness: True when every expansion was produced.  The
    string names the limit that first cut the listing short ("max_steps",
    "max_nodes", "max_depth" or "max_count"), or is None.

    Branches into nodes that cannot reach a unique tail are never followed
    (they would yield no word, only 2^depth paths) and make the listing
    incomplete, though no limit was hit."""
    words: list[PeriodicWord] = []
    complete, limit = not graph.truncated, graph.limit
    if graph.root_kind == LIMIT:
        return words, False, limit
    live = _live_nodes(graph)
    queue: deque[tuple[str, int | None, tuple[int, ...], int]] = deque(
        [(graph.root_kind, graph.root_target, graph.root_segment, 0)]
    )
    while queue:
        kind, target, prefix, depth = queue.popleft()
        if len(words) >= max_count:
            return words, False, limit or "max_count"
        if kind == TERMINAL:
            tail = graph.terminals[target]
            words.append(PeriodicWord(prefix + tail.preperiod, tail.period))
            continue
        if depth >= max_depth:
            complete, limit = False, limit or "max_depth"
            continue
        for digit in (0, 1):
            e = graph.edges[target][digit]
            if e.kind == TERMINAL or (e.kind == NODE and e.target in live):
                queue.append((e.kind, e.target, prefix + (digit,) + e.segment, depth + 1))
            else:
                complete = False
    return words, complete, limit


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
    graph = build_branch_graph(x, max_steps=max_steps, max_nodes=max_nodes)
    words, _, _ = _discover(graph, max_count, max_depth)
    return sorted(words)


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
    graph = build_branch_graph(x, max_steps=max_steps, max_nodes=max_nodes)
    words, complete, _ = _discover(graph, max_count, max_depth)
    return words, complete


# ---------------------------------------------------------------------------
# prefix-count oracle

# the digits that keep a remainder in the domain, by its region
_VIABLE_DIGITS = {Region.LOW: (0,), Region.SWITCH: (0, 1), Region.HIGH: (1,)}


def viable_prefix_counts(x: AlgebraicReal, max_depth: int) -> list[int]:
    """For each n = 1..max_depth, the number of binary prefixes p of length n
    with 0 <= q^n x - sum(p_i q^(n-i)) <= 1/(q-1).

    This is exactly the number of distinct length-n prefixes among the
    expansions of x, computed by pure interval filtering -- independent of
    the branch-graph machinery, which it cross-checks.  A remainder r in the
    domain extends by digit d exactly when q*r - d stays in it, that is when
    r <= 1/(q(q-1)) for d = 0 and r >= 1/q for d = 1: by r's region.
    """
    if max_depth < 1:
        raise ValueError("depth must be >= 1")
    orbits, _ = _start(x)
    locate, step = orbits.locate, orbits.step
    # remainders, as numerator tuples over x's denominator -> prefix count
    level: dict[tuple[int, ...], int] = {x.num: 1}
    counts: list[int] = []
    for _ in range(max_depth):
        nxt: dict[tuple[int, ...], int] = {}
        for n, mult in level.items():
            for d in _VIABLE_DIGITS[locate(n)]:
                r = step(n, d)
                nxt[r] = nxt.get(r, 0) + mult
        level = nxt
        counts.append(sum(level.values()))
    return counts
