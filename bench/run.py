"""The betaforge benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: one process, one thread,
and each op (one call a user makes) timed alone.  The seed fixes the inputs
and S fixes how many of them run: the fewest whole blocks that hold S
seconds of ops at the nominal host speed.  So two commits measured with the same
arguments do identical work.  Every run starts in fresh processes (see
``worker.py``), and answers are checked after the timed loop.  Timings are
scaled to the nominal host speed (``hostspeed.py``).

With ``--trace 0`` the run first times the set-up of several fresh
processes, then runs the ops, and prints the end-to-end metrics.  With
``--trace 1`` it runs the blocks of S/3 seconds untraced, then the same ops
traced, and prints the per-layer metrics (``tracing.py``).  Either way the
last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("classify-q2", "classify-pisot", "verify-quick", "queries")
CHECK_IDS = tuple(json.loads((BENCH / "verify_quick_witnesses.json").read_text()))
# nominal seconds of ops in one block of inputs (see each workload's ``block``)
BLOCK_S = {"classify-q2": 5.5, "classify-pisot": 0.67, "verify-quick": 6.4, "queries": 0.19}
# workloads run one block per fresh process: a pass of the suite, as
# ``betaforge verify`` runs it
BLOCK_PER_PROCESS = ("verify-quick",)
SETUP_LAUNCHES = 11
SETUP_READINGS = 5  # host-speed readings before and after each launch
TRACE_SHARE = 1 / 3
WORKER_TIMEOUT_S = 150
# printed for people, kept out of the result line: it is 0 whenever the
# answers are right, and the result line carries it as "failed"
REPORT_ONLY = ("failed_share",)


def blocks_for(workload: str, seconds: float) -> int:
    """Blocks that hold ``seconds`` of ops at the nominal host speed."""
    return max(1, math.ceil(seconds / BLOCK_S[workload]))


def setup_seconds(workload: str) -> float:
    """Scaled wall time from launch until a fresh worker is ready for its
    first op."""
    before = [hostspeed.reference() for _ in range(SETUP_READINGS)]
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), "setup", workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.wait(WORKER_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    after = [hostspeed.reference() for _ in range(SETUP_READINGS)]
    return (ready - start) * hostspeed.scale(before + after)


def launch(workload: str, seed: int, blocks: int, trace: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "run", workload, "--seed", str(seed),
           "--blocks", str(blocks)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_blocks(workload: str, seed: int, blocks: int, trace: bool = False) -> list[dict]:
    """Worker results for the first ``blocks`` blocks of the seed's inputs."""
    if workload in BLOCK_PER_PROCESS:
        return [launch(workload, seed, 1, trace) for _ in range(blocks)]
    return [launch(workload, seed, blocks, trace)]


def scaled(results: list[dict]) -> list[float]:
    return [s for r in results for s in r["scaled_s"]]


def ops_per_s(results: list[dict]) -> float:
    lat = scaled(results)
    return len(lat) / sum(lat)


def end_to_end(setup: list[float], results: list[dict]) -> dict[str, tuple[float, str]]:
    lat = scaled(results)
    attempted = len(lat)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(results), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "failed_share": (sum(r["failed"] for r in results) / attempted, "share"),
        "decided_share": (sum(r["decided"] for r in results) / attempted, "share"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    ops = len(scaled(traced))
    layers = tracing.layer_metrics(tracing.merge([r["trace"] for r in traced]), ops)
    # self times in the traced processes, scaled like the ops around them
    factor = sum(scaled(traced)) / sum(s for r in traced for s in r["latency_s"])
    for name in layers:
        if name.endswith(".self_s"):
            layers[name] *= factor
    for check_id in CHECK_IDS:
        times = [s for r in untraced for s, label in zip(r["scaled_s"], r["label"])
                 if label == check_id]
        layers[f"verify.{check_id}.s"] = statistics.median(times) if times else 0.0
    layers["trace.overhead"] = ops_per_s(traced) / ops_per_s(untraced)
    return {name: (value, tracing.unit(name)) for name, value in layers.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "betaforge" / "__init__.py").is_file():
        print(f"bench: no betaforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    if args.trace:
        blocks = blocks_for(args.workload, args.seconds * TRACE_SHARE)
        untraced = run_blocks(args.workload, args.seed, blocks)
        traced = run_blocks(args.workload, args.seed, blocks, trace=True)
        results = untraced + traced
        metrics = per_layer(untraced, traced)
        note = f"{len(scaled(traced))} of them traced"
    else:
        setup = [setup_seconds(args.workload) for _ in range(SETUP_LAUNCHES)]
        blocks = blocks_for(args.workload, args.seconds)
        results = run_blocks(args.workload, args.seed, blocks)
        metrics = end_to_end(setup, results)
        note = f"set-up: median of {SETUP_LAUNCHES} fresh launches"

    attempted = len(scaled(results))
    failed = sum(r["failed"] for r in results)
    raw_s = sum(s for r in results for s in r["latency_s"])
    print(f"{args.workload} seed {args.seed}: {attempted} ops ({blocks} block(s)) in "
          f"{len(results)} process(es), closed loop, 1 client; {note}; "
          f"{raw_s:.1f} s of ops measured, {sum(scaled(results)):.1f} s at nominal speed; "
          f"{time.perf_counter() - start:.1f} s in all")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for r in results:
        for error in r["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
