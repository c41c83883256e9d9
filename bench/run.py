"""Benchmark entry point for thermops.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each workload runs in fresh processes (bench/worker.py) with the BLAS and
OpenMP thread counts pinned to one, one process at a time.  An untraced run
(`--trace 0`) sets up five times, in five processes, and reports the
median set-up time; the third of them then runs whole passes of the
workload for S seconds of timed calls, checks every output outside the
timed region, and reports:

    setup_s      process start to the first timed operation (imports,
                 input generation, warm-up), median of five
    ops_per_s    operations per second of a pass in which each operation
                 takes its median time over the run's passes
    op_p50_ms    median operation latency
    peak_rss_mb  peak resident memory of the timed process

`--trace 1` runs untraced and traced passes in turn, and reports the
per-layer metrics of bench/spans.py and the tracing overhead.  Without `--workload`, every workload
runs, untraced and then traced.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  `--smoke`
runs one pass at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("ladder-audit", "erasure-deep", "oracle-mix", "cli-suite")
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A worker process failed; the run prints no result."""


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker process; return its start time and its JSON report."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], env=env, stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return started, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, deadline: float) -> dict:
    tail = [name, str(seed), str(seconds)] + (["--smoke"] if smoke else [])
    if trace:
        _, rep = _worker(["trace", *tail], deadline)
        print(f"# {name}: tracing overhead {100 * rep['trace_overhead']:.1f}% "
              f"over {rep['attempted']} operations, {rep['spans']} spans", flush=True)
        metrics = {m: {"value": v, "unit": spans.METRICS[m][0]} for m, v in rep["per_layer"].items()}
    else:
        setups = []
        for mode in ("setup", "setup", "run", "setup", "setup"):
            started, out = _worker([mode, *tail], deadline)
            setups.append(out["ready"] - started)
            if mode == "run":
                rep = out
        values = {k: rep[k] for k in ("ops_per_s", "op_p50_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END_UNITS.items()}
        if "op_p90_ms" in rep:
            print(f"# {name}: p90 {rep['op_p90_ms']:.4g} ms, p99 {rep['op_p99_ms']:.4g} ms "
                  f"over {rep['attempted']} operations", flush=True)
    for msg in rep["unexpected"]:
        print(f"# {name}: unexpected failure: {msg}", file=sys.stderr)
    return {
        "correct": not rep["unexpected"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            for trace in traces:
                deadline = time.monotonic() + DEADLINE_S
                result = run_workload(name, args.seed, args.seconds, trace, args.smoke, deadline)
                for metric, m in result["metrics"].items():
                    print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
                print(f"{name} attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
                key = f"{name}-seed{args.seed}-trace{int(trace)}"
                (out_dir / f"result-{key}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
                results[key] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
