"""One fresh process of the betaforge benchmark.

    worker.py setup WORKLOAD
        import what the workload uses, build its fields, print "ready".
    worker.py run WORKLOAD --seed N --blocks B [--trace]
        run the first B blocks of the workload's inputs for seed N, each op
        timed alone; then read peak memory, check every answer and print one
        JSON line.  With --trace the ops run traced (``tracing.py``).

The orchestrator is ``run.py``; it starts a fresh worker for every run so
that process-global state (the fields' isolating intervals only ever
shrink) never carries over from one run to the next.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hostspeed  # noqa: E402

MODULES = {
    "classify-q2": "classify",
    "classify-pisot": "classify",
    "verify-quick": "verify_quick",
    "queries": "queries",
}
MAX_ERRORS = 5
# op time after which the host speed is read again: short enough to follow
# its drift, long enough that the readings cost a few per cent of the run
SEGMENT_S = 0.02


def load(workload: str):
    return importlib.import_module(MODULES[workload]).WORKLOADS[workload]


def measure(wl, inputs: list, sampler: hostspeed.Sampler, tracer=None) -> list[tuple]:
    """Run the ops in order; a record (input, answer or exception, seconds,
    scaled seconds) per op.  Host-speed readings bracket every segment of
    ops, and the sampler's timer adds readings inside long ops; the time
    they take stays outside the ops' timings."""
    records, segment = [], []
    with sampler:
        sampler.read()
        first = 0  # the reading that opens the segment
        for i, inp in enumerate(inputs):
            start = sampler.clock()
            try:
                answer = tracer.op(wl.run, inp) if tracer else wl.run(inp)
            except Exception as exc:  # a failed op is counted, not fatal
                answer = exc
            segment.append((inp, answer, sampler.clock() - start))
            if sum(r[2] for r in segment) >= SEGMENT_S or i == len(inputs) - 1:
                sampler.read()
                factor = hostspeed.scale(sampler.readings[first:])
                records += [(*r, r[2] * factor) for r in segment]
                segment, first = [], len(sampler.readings) - 1
    return records


def check_all(wl, records) -> tuple[int, list[str]]:
    """Number of decided answers, and an error line per failed op."""
    decided, errors = 0, []
    for i, (inp, answer, *_) in enumerate(records):
        if isinstance(answer, Exception):
            error = f"raised {type(answer).__name__}: {answer}"
        else:
            try:
                error = wl.check(inp, answer)
            except Exception as exc:  # the check itself hit a program error
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            decided += wl.decided(answer)
        else:
            errors.append(f"op {i} ({wl.label(inp)}): {error}")
    return decided, errors


def run(workload: str, seed: int, blocks: int, trace: bool) -> dict:
    wl = load(workload)
    inputs = list(itertools.islice(wl.inputs(seed), blocks * wl.block))
    sampler = hostspeed.Sampler()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer(clock=sampler.clock)
        tracing.install(tracer, sys.modules[type(wl).__module__])
    records = measure(wl, inputs, sampler, tracer)
    out = {
        "latency_s": [r[2] for r in records],
        "scaled_s": [r[3] for r in records],
        "label": [wl.label(r[0]) for r in records],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["trace"] = tracer.raw()
    out["decided"], errors = check_all(wl, records)
    out["failed"] = len(errors)
    out["errors"] = errors[:MAX_ERRORS]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        load(args.workload).setup()
        print("ready", flush=True)
        return
    print(json.dumps(run(args.workload, args.seed, args.blocks, args.trace)))


if __name__ == "__main__":
    main()
