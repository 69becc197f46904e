"""Per-layer tracing of betaforge from outside the package.

``install()`` replaces each traced public function with a wrapper, in every
betaforge module namespace that holds it (so ``from .words import region``
call sites are seen too), and each traced method on its class.  Wrappers
keep a span stack and add each call to per-name counts: calls, self time (a
call's duration minus the time of the traced calls made inside it) and calls
per parent span.  No span is stored: every per-layer metric is an aggregate.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

# layers reported with a call count (<layer>.calls) and a self time (<layer>.self_s)
TIMED_LAYERS = (
    "numberfield.sign",
    "numberfield.refine",
    "numberfield.mul",
    "numberfield.inverse",
    "numberfield.to_decimal",
    "words.region",
    "words.step",
    "words.eval_word",
    "words.parse_word",
    "words.compare",
    "branching.deterministic_run",
    "branching.build_branch_graph",
    "branching.classify",
    "branching.enumerate",
    "branching.prefix_oracle",
    "cli.main",
)

FIELDS = ("q2", "qf", "golden")


class Tracer:
    """Accounts traced calls made inside ``op``; outside it wrappers only pass
    calls through, so input generation and answer checks go unrecorded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.child_calls: Counter[tuple[str | None, str]] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper that accounts calls of ``fn`` to layer ``name``."""
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.child_calls[(parent, name)] += 1
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def raw(self) -> dict:
        """Counts and self times as plain data, for another process to merge."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "child_calls": {f"{p}>{n}": k for (p, n), k in self.child_calls.items()},
            "counts": dict(self.counts),
            "interval_bits": interval_bits(),
        }

    def op(self, run, inp):
        """Run one benchmark op as the root span of its call tree."""
        self.enabled = True
        try:
            return self.wrap("op", run)(inp)
        finally:
            self.enabled = False


# -- result hooks: work counts read from what a traced call returns -----------


def _on_refine(counts, args, kwargs, result):
    steps = args[1] if len(args) > 1 else kwargs.get("steps", 1)
    counts["refine.bisections"] += steps


def _on_graph(counts, args, kwargs, graph):
    refs = sum(1 for out in graph.edges.values() for e in out.values() if e.kind == "node")
    refs += graph.root_kind == "node"
    counts["graph.nodes"] += len(graph.nodes)
    counts["graph.node_refs"] += refs
    counts["graph.truncated"] += bool(graph.truncated)


def _on_enumerate(counts, args, kwargs, result):
    if isinstance(result, tuple):  # bfs_expansions: (words, complete)
        words, complete = result
        counts["enumerate.flagged"] += 1
        counts["enumerate.complete"] += bool(complete)
    else:
        words = result
    counts["enumerate.words"] += len(words)


def _on_oracle(counts, args, kwargs, result):
    counts["prefix_oracle.levels"] += len(result)


def install(tracer: Tracer, *callers) -> None:
    """Route every traced betaforge function and method through ``tracer``,
    in the betaforge modules and in the calling modules ``callers``."""
    import betaforge
    from betaforge import branching, cli, numberfield, verify, words

    modules = (betaforge, numberfield, words, branching, verify, cli, *callers)

    def patch_function(name, fn, on_result=None):
        wrapped = tracer.wrap(name, fn, on_result)
        sites = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    sites += 1
        if not sites:
            raise RuntimeError(f"no import site found for {fn.__qualname__}")

    def patch_method(name, cls, attrs, on_result=None):
        for attr in attrs:
            setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], on_result))

    AR = numberfield.AlgebraicReal
    patch_method("numberfield.sign", AR, ("sign",))
    patch_method("numberfield.refine", numberfield.BaseField, ("refine",), _on_refine)
    patch_method("numberfield.mul", AR, ("__mul__", "__rmul__"))
    patch_method("numberfield.inverse", AR, ("inverse",))
    patch_method("numberfield.to_decimal", AR, ("to_decimal",))
    patch_method("words.compare", words.PeriodicWord, ("__lt__", "__le__", "__gt__", "__ge__"))

    patch_function("words.region", words.region)
    patch_function("words.step", words.t0)
    patch_function("words.step", words.t1)
    patch_function("words.eval_word", words.eval_word)
    patch_function("words.parse_word", words.parse_word)
    patch_function("branching.deterministic_run", branching.deterministic_run)
    patch_function("branching.build_branch_graph", branching.build_branch_graph, _on_graph)
    patch_function("branching.classify", branching.classify)
    patch_function("branching.enumerate", branching.bfs_expansions, _on_enumerate)
    patch_function("branching.enumerate", branching.enumerate_expansions, _on_enumerate)
    patch_function("branching.prefix_oracle", branching.viable_prefix_counts, _on_oracle)
    patch_function("cli.main", cli.main)


def interval_bits() -> dict[str, float]:
    """-log2 of the width of each built-in field's isolating interval."""
    from betaforge import numberfield

    out = {}
    for name in FIELDS:
        lo, hi = getattr(numberfield, f"{name}_field")().interval()
        out[f"numberfield.interval_bits.{name}"] = -math.log2(hi - lo)
    return out


def merge(raws: list[dict]) -> dict:
    """Sum the ``Tracer.raw()`` records of several processes; interval bits
    are those at the end of the last one."""
    out = {key: Counter() for key in ("calls", "self_s", "child_calls", "counts")}
    for raw in raws:
        for key, total in out.items():
            total.update(raw[key])
    out["interval_bits"] = raws[-1]["interval_bits"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``ops`` benchmark ops."""
    calls, self_s, child, c = raw["calls"], raw["self_s"], raw["child_calls"], raw["counts"]
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["numberfield.refine.bisections"] = c["refine.bisections"]
    out["numberfield.refine_per_sign"] = _ratio(
        child["numberfield.sign>numberfield.refine"], calls["numberfield.sign"])
    out.update(raw["interval_bits"])
    out["branching.steps_per_run"] = _ratio(
        child["branching.deterministic_run>words.step"], calls["branching.deterministic_run"])
    builds = calls["branching.build_branch_graph"]
    out["branching.nodes_per_graph"] = _ratio(c["graph.nodes"], builds)
    out["branching.truncated_share"] = _ratio(c["graph.truncated"], builds)
    out["branching.node_reuse"] = _ratio(c["graph.node_refs"] - c["graph.nodes"],
                                         c["graph.node_refs"])
    out["branching.graph_builds_per_op"] = _ratio(builds, ops)
    out["branching.enumerate.words_per_call"] = _ratio(c["enumerate.words"],
                                                       calls["branching.enumerate"])
    out["branching.enumerate.complete_share"] = _ratio(c["enumerate.complete"],
                                                       c["enumerate.flagged"])
    out["branching.prefix_oracle.levels"] = c["prefix_oracle.levels"]
    return out


def unit(name: str) -> str:
    """The unit of a per-layer metric, by its name."""
    if name.endswith((".self_s", ".s")):
        return "s"
    if name.startswith("numberfield.interval_bits."):
        return "bits"
    if name.endswith((".calls", ".bisections", ".levels")):
        return "count"
    return "ratio"
