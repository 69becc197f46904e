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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator

from .numberfield import AlgebraicReal, BaseField
from .words import PeriodicWord, Region, domain_bounds, region, t0, t1

DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_NODES = 10_000


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


def deterministic_run(x: AlgebraicReal, max_steps: int = DEFAULT_MAX_STEPS) -> RunOutcome:
    """Follow the forced branch from x until a switch point, a closed
    non-branching cycle, or the step budget."""
    reg = region(x)
    if reg is Region.OUTSIDE:
        raise OutsideDomain(f"{x} is outside [0, 1/(q-1)]")
    # each visited value -> its step; the keys, in order, are the orbit so far
    seen: dict[AlgebraicReal, int] = {}
    digits: list[int] = []
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
        if reg is Region.LOW:
            digits.append(0)
            v = t0(v)
        else:
            digits.append(1)
            v = t1(v)
        reg = region(v)
        if reg is Region.OUTSIDE:
            raise OutsideDomain(f"orbit left the domain at {v}")
    return RunOutcome(tuple(digits), StepLimit(max_steps), (*seen, v))


# ---------------------------------------------------------------------------
# branch graph


NODE = "node"
TERMINAL = "terminal"
LIMIT = "limit"


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
    on the edges and unique tails collected as terminals."""

    field: BaseField
    start: AlgebraicReal
    root_segment: tuple[int, ...]
    root_kind: str
    root_target: int | None
    nodes: dict[int, AlgebraicReal] = dataclass_field(default_factory=dict)
    edges: dict[int, dict[int, Edge]] = dataclass_field(default_factory=dict)
    terminals: dict[int, PeriodicWord] = dataclass_field(default_factory=dict)
    truncated: bool = False


def build_branch_graph(
    x: AlgebraicReal,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> BranchGraph:
    """Breadth-first closure of the switch points reachable from x."""
    node_ids: dict[AlgebraicReal, int] = {}
    terminal_ids: dict[PeriodicWord, int] = {}
    graph: BranchGraph

    def terminal_id(word: PeriodicWord) -> int:
        tid = terminal_ids.get(word)
        if tid is None:
            tid = len(terminal_ids)
            terminal_ids[word] = tid
            graph.terminals[tid] = word
        return tid

    queue: deque[int] = deque()

    def resolve(outcome: RunOutcome) -> tuple[str, int | None]:
        if isinstance(outcome.end, SwitchHit):
            v = outcome.end.value
            nid = node_ids.get(v)
            if nid is None:
                if len(node_ids) >= max_nodes:
                    graph.truncated = True
                    return LIMIT, None
                nid = len(node_ids)
                node_ids[v] = nid
                graph.nodes[nid] = v
                queue.append(nid)
            return NODE, nid
        if isinstance(outcome.end, UniqueTail):
            return TERMINAL, terminal_id(outcome.end.tail_word)
        graph.truncated = True
        return LIMIT, None

    run0 = deterministic_run(x, max_steps)
    graph = BranchGraph(
        field=x.field,
        start=x,
        root_segment=run0.segment,
        root_kind="",
        root_target=None,
    )
    graph.root_kind, graph.root_target = resolve(run0)

    while queue:
        nid = queue.popleft()
        v = graph.nodes[nid]
        out: dict[int, Edge] = {}
        for digit, branch in ((0, t0), (1, t1)):
            # both branches of a switch point stay in the domain
            outcome = deterministic_run(branch(v), max_steps)
            kind, target = resolve(outcome)
            out[digit] = Edge(digit, outcome.segment, kind, target)
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
) -> tuple[list[PeriodicWord], bool]:
    """Expansions in breadth-first order by number of branch decisions
    (digit 0 explored before digit 1 at each switch point).  The boolean
    reports completeness: True when every expansion was produced.

    Branches into nodes that cannot reach a unique tail are never followed
    (they would yield no word, only 2^depth paths) and make the listing
    incomplete, as the depth limit would."""
    words: list[PeriodicWord] = []
    complete = not graph.truncated
    if graph.root_kind == LIMIT:
        return words, False
    live = _live_nodes(graph)
    queue: deque[tuple[str, int | None, tuple[int, ...], int]] = deque(
        [(graph.root_kind, graph.root_target, graph.root_segment, 0)]
    )
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
            if e.kind == TERMINAL or (e.kind == NODE and e.target in live):
                queue.append((e.kind, e.target, prefix + (digit,) + e.segment, depth + 1))
            else:
                complete = False
    return words, complete


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
    words, _ = _discover(graph, max_count, max_depth)
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
    return _discover(graph, max_count, max_depth)


# ---------------------------------------------------------------------------
# prefix-count oracle


def viable_prefix_counts(x: AlgebraicReal, max_depth: int) -> list[int]:
    """For each n = 1..max_depth, the number of binary prefixes p of length n
    with 0 <= q^n x - sum(p_i q^(n-i)) <= 1/(q-1).

    This is exactly the number of distinct length-n prefixes among the
    expansions of x, computed by pure interval filtering -- independent of
    the branch-graph machinery, which it cross-checks.
    """
    if max_depth < 1:
        raise ValueError("depth must be >= 1")
    _, _, upper = domain_bounds(x.field)
    if x.sign() < 0 or x > upper:
        raise OutsideDomain(f"{x} is outside [0, 1/(q-1)]")
    level: dict[AlgebraicReal, int] = {x: 1}
    counts: list[int] = []
    for _ in range(max_depth):
        nxt: dict[AlgebraicReal, int] = {}
        for v, mult in level.items():
            for d in (0, 1):
                r = v.times_q_minus(d)
                if r.sign() >= 0 and r <= upper:
                    nxt[r] = nxt.get(r, 0) + mult
        level = nxt
        counts.append(sum(level.values()))
    return counts
