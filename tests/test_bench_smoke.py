"""The benchmark's smoke run: every workload's operations and checks at tiny sizes.

bench/ calls the package's public functions by name, so a change to one of
their signatures shows here, not only when the benchmark is next run.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_every_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    runs = json.loads(proc.stdout.strip().splitlines()[-1])
    assert runs
    for name, run in runs.items():
        assert run["correct"] is True and run["failed"] == 0, (name, run["correct"], run["failed"])
