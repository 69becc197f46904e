"""Shared test fixtures, the grid reference for field construction, the
Fraction reference for exact signs, the cross-multiplied reference for the
orbit kernel's region rule, the level-by-level reference for the prefix
oracle, the dict-based reference classifier of branch graphs, and the
recount of expansions on the remainder graph."""

import math
import signal
import weakref
from fractions import Fraction
from typing import Iterator

import pytest

from betaforge.branching import LIMIT, NODE, TERMINAL, BranchGraph, Cardinality, _start
from betaforge.numberfield import (
    AmbiguousInterval,
    BaseField,
    NoRootInInterval,
    ReduciblePolynomial,
    _integer_roots,
    _poly_over_interval as _integer_enclosure,
    _pseudo_divmod,
    _reduced,
    _sign_at,
    _sturm_chain,
    _sturm_count,
)
from betaforge.words import Region, domain_bounds


@pytest.fixture
def wall_time_limit():
    """``wall_time_limit(seconds)`` makes the rest of the test raise
    TimeoutError once it has run that long, so a computation that never ends
    fails the test instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its wall-time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


# field construction on a sign grid: the reference for ``BaseField``, which
# finds the same cell by bisection
def grid_construction(coeffs, iso):
    """The certified cell (a, b, d), meaning [a/d, b/d], and the sign at its
    lower end, for the monic integer polynomial ``coeffs`` (a tuple) over
    the rational interval ``iso``; or the refusal, raised as construction
    raises it.  The screens are construction's; the root is bracketed by
    the first sign change on a 33-point grid over [lo, hi], and the cell is
    halved until the derivative has one sign on it."""
    lo, hi = Fraction(iso[0]), Fraction(iso[1])
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    if not a < b:
        raise ValueError("isolating interval is empty")
    if coeffs[0] == 0:
        raise ReduciblePolynomial("zero constant term: x divides the polynomial")
    chain = _sturm_chain(coeffs)
    quot = _pseudo_divmod(chain[0], chain[-1])[0]
    rational = _integer_roots([c * quot[-1] for c in quot], 1 + max(map(abs, coeffs[:-1])))
    if rational:
        raise ReduciblePolynomial(f"rational root {min(rational, key=lambda r: (abs(r), r < 0))}")
    roots = _sturm_count(chain, a, b, d)
    if roots == 0:
        raise NoRootInInterval(f"no root of {coeffs} in [{lo}, {hi}]")
    if roots > 1:
        raise AmbiguousInterval(f"{roots} real roots of {coeffs} in [{lo}, {hi}]")
    pts = [32 * a + (b - a) * i for i in range(33)]
    signs = [_sign_at(coeffs, m, 32 * d) for m in pts]
    crossings = [i for i in range(32) if signs[i] * signs[i + 1] < 0]
    if not crossings:
        raise NoRootInInterval(f"no sign change of {coeffs} over [{lo}, {hi}]")
    i = crossings[0]
    (a, b, d), sign_lo = (pts[i], pts[i + 1], 32 * d), signs[i]
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(256):
        dlo, dhi = _integer_enclosure(deriv, a, b, d)
        if dlo > 0 or dhi < 0:
            return (a, b, d), sign_lo
        if _sign_at(coeffs, a + b, 2 * d) == sign_lo:
            a, b, d = a + b, 2 * b, 2 * d
        else:
            a, b, d = 2 * a, a + b, 2 * d
    raise AmbiguousInterval("could not certify a simple root by refinement")


# the region rule with each bound's scaled sum cross-multiplied by the other
# denominator: the reference for ``BaseField._rule``, which tests the
# value's filter sum against integer thresholds instead
def cross_multiplied_rule(field, den):
    """The region of sum(num[i] * q^i) / den in the domain, as a function of
    ``num``, and whether the filter decided it: each switch bound b's scaled
    sum (S, E) against the value's (s, e) as b.den * s - den * S against
    b.den * e + den * E, and the reduced element's ``_cmp`` where that
    cannot decide."""
    low, switch, _ = field.domain_bounds()
    scaled = field._filter()
    checks = [(b, b.den, *(den * v for v in b._scaled()), below, strict)
              for b, below, strict in ((low, Region.LOW, True), (switch, Region.SWITCH, False))]

    def locate(num):
        s, e = scaled(num)
        decided = True
        for bound, b_den, b_s, b_e, below, strict in checks:
            diff = b_den * s - b_s
            err = b_den * e + b_e
            if diff > err:
                continue
            if diff < -err:
                return below, decided
            decided = False
            c = _reduced(field, num, den)._cmp(bound)
            if c < 0 or (c == 0 and not strict):
                return below, decided
        return Region.HIGH, decided

    return locate


# the prefix oracle over whole levels: the reference for
# ``branching.viable_prefix_counts``, whose level walk (``_levels``) steps
# each forced stretch with the orbit kernel's run
def level_oracle(x, max_depth):
    """``viable_prefix_counts(x, max_depth)`` by a dict of remainders to
    prefix counts per level, up to the first level equal to an earlier one
    in the current run of equal counts."""
    if max_depth < 1:
        raise ValueError("depth must be >= 1")
    rule = _start(x)[0]
    step, locate, minus_one = rule.field._step, rule.locate, -rule.den
    level = {x.num: 1}
    counts = []
    run_count = 1
    seen = set()
    while len(counts) < max_depth:
        nxt = {}
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


# interval Horner in Fractions: the reference for enclosure() and for the
# field's integer form, which gives d^n times this over [a/d, b/d]
def _poly_over_interval(coeffs, lo, hi):
    """Conservative enclosure of the polynomial's range over [lo, hi]."""
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p0, p1, p2, p3 = vlo * lo, vlo * hi, vhi * lo, vhi * hi
        vlo = min(p0, p1, p2, p3) + c
        vhi = max(p0, p1, p2, p3) + c
    return vlo, vhi


# a twin of each field the reference has read: the same polynomial over the
# field's interval, built once; only the twin's interval is ever halved
_twins = weakref.WeakKeyDictionary()


def enclosure(x, width=None):
    """A rational interval around the value of the field element ``x``, at
    most ``width`` wide or, with no width, clear of 0 (x must then be
    nonzero): the reference for exact signs, in Fractions only.

    x's numerators are enclosed by interval arithmetic over the isolating
    interval of a twin of x's field, which is halved 8 times more until the
    enclosure is narrow enough.  The twin keeps its interval for the next
    call; x's own field is left as it is."""
    if x.is_rational():
        r = x.as_rational()
        return r, r
    field = x.field
    twin = _twins.get(field)
    if twin is None:
        twin = _twins[field] = BaseField(field.min_poly, field.interval())
    while True:
        lo, hi = twin.interval()
        vlo, vhi = _poly_over_interval(x.num, lo, hi)
        vlo, vhi = Fraction(vlo, x.den), Fraction(vhi, x.den)
        if (vhi - vlo <= width) if width is not None else (vlo > 0 or vhi < 0):
            return vlo, vhi
        twin.refine(8)


# Tarjan on a graph's dict tables, keyed by its node ids (a ``BranchGraph``'s,
# or any record with its root_kind, root_target, edges, truncated and limit):
# the reference for ``branching._answer``, which works on lists by node id
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


# the reference for ``count_expansions`` in a Pisot base: no switch points,
# no forced runs, no region rule and no memo
def recount(x, max_nodes: int = 10**5) -> Cardinality:
    """How many expansions x has, counted on its remainder graph: one node
    per remainder r, from x on, and one edge per digit d with q*r - d in
    [0, 1/(q-1)].  The expansions of x are the infinite paths from x, every
    node has an out-edge and every node is reachable from x.  So an SCC
    with more inner edges than nodes gives continuum many, a cyclic SCC
    with an edge out of it countably many, and otherwise the count is the
    number of paths.  The graph is finite in a Pisot base; past
    ``max_nodes`` remainders the recount refuses."""
    top = domain_bounds(x.field)[2]
    adj: dict = {}
    todo = [x]
    while todo:
        r = todo.pop()
        if r in adj:
            continue
        if len(adj) >= max_nodes:
            raise RuntimeError(f"more than {max_nodes} remainders")
        adj[r] = [y for y in (r.times_q_minus(0), r.times_q_minus(1)) if y.sign() >= 0 and y <= top]
        todo += adj[r]
    comps = _sccs(adj)
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    paths: list[int] = []
    countable = False
    for ci, comp in enumerate(comps):
        targets = [comp_of[w] for v in comp for w in adj[v]]
        inner = targets.count(ci)
        if inner > len(comp):
            return Cardinality.continuum()
        exits = [c for c in targets if c != ci]
        countable = countable or bool(inner and exits)
        paths.append(sum(paths[c] for c in exits) or 1)
    if countable:
        return Cardinality.aleph0()
    return Cardinality.finite(paths[comp_of[x]])
