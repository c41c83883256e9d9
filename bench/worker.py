"""One workload in one process: set up, run whole passes, check, report.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS [--smoke]

MODE is `setup` (set up and report when ready), `run` (timed calls,
checked outside the timed region) or `trace` (untraced and traced passes
in turn).
`python3 bench/worker.py probe` reads one wit operation and N as JSON on
stdin and reports the resident-memory peak of extend_to_oscillator.
The last line of standard output is a JSON object.  bench/run.py starts
these processes with the BLAS and OpenMP thread counts pinned to one.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def _import_package():
    if not (SRC / "thermops" / "__init__.py").is_file():
        sys.exit(f"no thermops package under {SRC}")
    sys.path.insert(0, str(SRC))
    import thermops

    if Path(thermops.__file__).resolve().parent != (SRC / "thermops").resolve():
        sys.exit(f"imported thermops from {thermops.__file__}, not from {SRC}")


def _status_mb(field: str) -> float:
    """VmRSS (resident now) or VmHWM (peak resident) of this process, in MB.

    getrusage's ru_maxrss is not used: Linux carries it across exec, so a
    process started by a large one would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no {field} in /proc/self/status")


def _loop(wl, seconds: float, on_op=None) -> dict:
    """Whole passes over wl.items until `seconds` of timed calls have run (one pass at least).

    Returns each operation's time and item index, the numbers of the
    operations that failed, and the messages of the unexpected failures.
    """
    times, indices, failed, unexpected = [], [], set(), []
    spent = 0.0
    op = 0
    while True:
        for index, item in enumerate(wl.items):
            if on_op is not None:
                on_op(op)
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            dt = time.perf_counter() - t0
            if error is None:
                error = wl.check(index, item, out)
            if error is not None:
                failed.add(op)
                if not wl.expected_failure(item, out):
                    unexpected.append(error)
            del out
            times.append(dt)
            indices.append(index)
            spent += dt
            op += 1
        if spent >= seconds:
            break
    return {"times": times, "indices": indices, "failed": failed, "unexpected": unexpected}


def _rate(times: list[float], indices: list[int], num_items: int) -> float:
    """Operations per second of a pass in which each operation takes its median time.

    Every pass holds the same operations, so each has one time per pass;
    their medians leave out the spells in which the shared host ran slow.
    """
    per_item = [[] for _ in range(num_items)]
    for t, i in zip(times, indices):
        per_item[i].append(t)
    return num_items / sum(statistics.median(ts) for ts in per_item)


def _late_failures(wl, indices: list[int], failed: set[int], unexpected: list[str]) -> int:
    """Add wl.late_check's failures to `failed` (operation numbers) and `unexpected`; return the failed count."""
    for index, error in wl.late_check():
        failed.update(op for op, i in enumerate(indices) if i == index)
        unexpected.append(error)
    return len(failed)


def _probe_extension(sub, num_quanta: int) -> float:
    """Resident-memory peak of one extend_to_oscillator call, in a fresh process."""
    payload = {
        "system": list(sub.system.levels), "delta": sub.delta, "beta": sub.beta, "num_quanta": int(num_quanta),
        **{name: getattr(sub, name).tolist() for name in ("r00", "r01", "r10", "r11")},
    }
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "probe"],
        input=json.dumps(payload), capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_mb"]


def probe() -> None:
    _import_package()
    import numpy as np
    from thermops import construction
    from thermops.channels import WitSubchannels
    from thermops.spectra import EnergySpectrum

    cfg = json.loads(sys.stdin.read())
    sub = WitSubchannels(
        *(np.array(cfg[name]) for name in ("r00", "r01", "r10", "r11")),
        delta=cfg["delta"], beta=cfg["beta"], system=EnergySpectrum(tuple(cfg["system"])),
    )
    before = _status_mb("VmRSS")
    channel = construction.extend_to_oscillator(sub, cfg["num_quanta"])
    peak = _status_mb("VmHWM") - before
    del channel
    print(json.dumps({"peak_mb": peak}))


def main(argv: list[str]) -> int:
    if argv[0] == "probe":
        probe()
        return 0
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    smoke = "--smoke" in argv[4:]
    _import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(name, seed, smoke, OUT)
    try:
        wl.warm_up()
        ready = time.monotonic()
        if mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        if mode == "run":
            res = _loop(wl, 0.0 if smoke else seconds)
            times = res["times"]
            report = {
                "ready": ready,
                "attempted": len(times),
                "ops_per_s": _rate(times, res["indices"], len(wl.items)),
                "op_p50_ms": 1e3 * statistics.median(times),
                "peak_rss_mb": _status_mb("VmHWM"),
            }
            # Late checks come after the metrics: their imports must not count.
            report["failed"] = _late_failures(wl, res["indices"], res["failed"], res["unexpected"])
            report["unexpected"] = res["unexpected"][:5]
            if len(times) >= 1000:  # ten samples beyond the p99
                qs = statistics.quantiles(times, n=100)
                report["op_p90_ms"], report["op_p99_ms"] = 1e3 * qs[89], 1e3 * qs[98]
            print(json.dumps(report))
            return 0

        import spans

        # Untraced and traced passes alternate, so that the overhead compares
        # each traced operation with the same operation run moments before.
        tracer = spans.Tracer()
        base, times, indices, failed, unexpected = [], [], [], set(), []
        while True:
            res = _loop(wl, 0.0)
            base += res["times"]
            unexpected += res["unexpected"]
            first = len(times)
            tracer.install()
            try:
                res = _loop(wl, 0.0, on_op=lambda op: setattr(tracer, "op", first + op))
            finally:
                tracer.uninstall()
            times += res["times"]
            failed.update(first + op for op in res["failed"])
            indices += res["indices"]
            unexpected += res["unexpected"]
            if smoke or sum(times) >= seconds:
                break
        num_failed = _late_failures(wl, indices, failed, unexpected)
        largest = tracer.largest_extension
        peak_mb = _probe_extension(largest[1], largest[2]) if largest else 0.0
        per_layer = tracer.per_layer(len(times), peak_mb)
        overhead = statistics.median(t / b for t, b in zip(times, base)) - 1.0
        tracer.write(OUT / f"trace-{name}-{seed}.jsonl")
        print(json.dumps({
            "attempted": len(times),
            "failed": num_failed,
            "unexpected": unexpected[:5],
            "trace_overhead": overhead,
            "spans": len(tracer.spans),
            "per_layer": per_layer,
        }))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
