"""Times of the dense ladder kernels against the battery size N.

    python3 bench/kernels.py

For one seeded three-level wit operation, prints the median of three
times of extend_to_oscillator, validate, check_eti (the interior-band audit that
verify_extension and the theorems run) and work_distribution (from the
level N/2) at each N, with the dense matrix size.  BLAS and OpenMP run
on one thread, as in the workloads.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from thermops import batteries, channels, construction  # noqa: E402
from thermops.spectra import DiagonalState  # noqa: E402

from workloads import wit_operation  # noqa: E402

SIZES = (40, 200, 800, 1600)
REPEATS = 3


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    sub = wit_operation(np.random.default_rng(0), 3)
    x = DiagonalState(np.full(3, 1.0 / 3.0), sub.system)
    print("| kernel | " + " | ".join(f"N = {n}" for n in SIZES) + " |")
    print("|---" * (len(SIZES) + 1) + "|")
    rows = {"extend_to_oscillator": [], "validate": [], "check_eti": [], "work_distribution": [], "matrix size": []}
    for n in SIZES:
        ch = construction.extend_to_oscillator(sub, n)
        bat = DiagonalState.pure(n // 2, ch.battery)
        rows["extend_to_oscillator"].append(_median_time(lambda: construction.extend_to_oscillator(sub, n)))
        rows["validate"].append(_median_time(lambda: channels.validate(ch)))
        rows["check_eti"].append(_median_time(lambda: channels.check_eti(ch, 1, row_max=n - 1, col_max=n - 1)))
        rows["work_distribution"].append(_median_time(lambda: batteries.work_distribution(ch, x, bat)))
        rows["matrix size"].append(ch.matrix.nbytes / 1e6)
        del ch
    for name, vals in rows.items():
        if name == "matrix size":
            print(f"| {name} | " + " | ".join(f"{v:.1f} MB" for v in vals) + " |")
        else:
            print(f"| `{name}` | " + " | ".join(f"{v:.3f} s" for v in vals) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
