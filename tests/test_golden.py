"""Byte-for-byte pins of the package's outputs at small sizes.

Every experiment table at N = 40 (three trials where the experiment draws
trials), one seeded `construct` channel file and report, at N = 40 and at
the automatic N, and the `erasure stats` record at eps = 0.499,
gamma = 0.25 (N = 13,830) and at six more cells (automatic N, N = 40 and
beta = 2) are pinned by their sha256.  A refactor or a speed-up must keep
every one of these bytes; a change that moves a number on purpose updates
the digest here and says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermops
from thermops.cli import main
from thermops.experiments import EXPERIMENTS, random_wit_subchannels, run_experiment
from thermops.fileio import sha256_text

SMALL = {"num_quanta": 40, "trials": 3}

TABLE_DIGESTS = {
    "certify-thm1/certify_thm1.csv": "79a81b7f28787458c6d8c6f92aa03ece47978449a9e540c12e89337a0677047d",
    "certify-thm2/certify_thm2.csv": "4ef5424a1126f9aadd39378c2139b91d081e07b7ba8f1722a61e58dc740928b8",
    "certify-thm4/certify_thm4.csv": "3393d8fbc4fc6957086bd237c8ebb662d94db12c0129b329f3a158ac53134285",
    "example1/example1_work_distribution.csv": "e01923067bf212162dc1eda95e8f98a3ac7384f2ef6fac3d20e3d366eed9e005",
    "example2/example2_obstruction.csv": "cba28967b30e7edca76f82fb6c13ecd8f8197cdbfe273f8fba48b55a218b279d",
    "example3/example3_conditional_average.csv": "35a1abf5be53745802dfa03d15fda674d76e16b4965bb40ece0506135114941a",
    "fig2a/fig2a.csv": "cb21df3d1d9bba6479a2752e8b0eacdefdaeeb8a772334c34f4d0dd27220b939",
    "fig2b/fig2b.csv": "377262fcbfd3b7ec97ec6a3a7409c2b033ddaa7877ec348b186e9e31f4caf1cd",
    "fig4/fig4.csv": "d93dd230cd21f928a8240c436e7f26ccaeeb67fc3a7a8df3538d79069e45fc31",
    "oracle-feasibility/oracle_feasibility.csv": "cfbb806726a5b24024681a4284feb7f0319fa55e1599616c8e1715b6962fa355",
}

CONSTRUCT_DIGESTS = {
    "N40/channel": "37c738c6e9c4e07736678ec38cfc9d747d4e60a95eb7278d0663d49a299ff1fa",
    "N40/report": "15169e5d40c98a216bc63b2b2058a4c6ce077d8fea6c8a14094d49ffe896e1b2",
    "auto/channel": "6160290e3eaa4ebbdbe1d17f0920f12a19e4761e1455c2d6d64c405ab5a18844",
    "auto/report": "4f128555d49c02a87b446ba6078d44711ab4e565d2ac15c5abf0cd713bb2254d",
}

# The record's averages are dot products of N + 2 = 13,832 terms, taken by
# spectra.dot as numpy's pairwise sum, so that the bytes do not depend on the
# BLAS thread count.  Its avg_sim, 0.24825183083686203, is the correctly
# rounded sum of the products (math.fsum gives the same); the BLAS dot
# product gave 0.24825183083686206 on one and two threads.
ERASURE_STATS_DIGEST = "4fff92b670f3828058872f9c692cd753bf807c4202610a26a2a4f0accbe282b9"

# `erasure stats` records of more cells, keyed by their arguments: exit code
# (1 where the short ladder misses the closed forms) and sha256 of the output.
ERASURE_CELL_DIGESTS = {
    ("0.48", "0"): (0, "fcb71f7b7cbb06484a440d40c15d8d038e483280c9cd7ac653a3799c9dfadb87"),
    ("0.3", "0.2"): (0, "75ce3d71a9b70b4a9c81b1c65f57536b0f2611b6fc05dc93834fcfeca3406287"),
    ("0.48", "0", "--num-quanta", "40"): (0, "23eec170cb3f65cc4f0660fa1a126ff3e7a2714bbf0120ff12c540f7e26e7555"),
    ("0.3", "0.2", "--num-quanta", "40"): (1, "cd6d71ceb23d3f192c9fd0d47fd72a44399d97a3d53734dfffa9945d4021b20f"),
    ("0.499", "0.25", "--num-quanta", "40"): (1, "a13b5cf92b57688088121d8f16f2079fa65a02dd340d6c4fe4d23f25b927afce"),
    ("0.48", "0.1", "--beta", "2"): (0, "cc5d7321b46e9bf0096c62f9ab24a40c82259bd56e89caad1b64cae11ae0b1e0"),
}


def _small_overrides(name: str) -> dict:
    defaults = EXPERIMENTS[name][0]
    return {key: value for key, value in SMALL.items() if key in defaults}


def table_digests() -> dict[str, str]:
    out = {}
    for name in sorted(EXPERIMENTS):
        result = run_experiment(name, _small_overrides(name))
        for fname, text in result.tables.items():
            out[f"{name}/{fname}"] = sha256_text(text)
    return out


def _subchannel_config(seed: int, trial: int) -> str:
    sub = random_wit_subchannels(seed, trial)
    lines = [
        f"delta = {sub.delta!r}",
        f"beta = {sub.beta!r}",
        f"sys_levels = {json.dumps(list(sub.system.levels))}",
    ]
    for name in ("r00", "r01", "r10", "r11"):
        lines.append(f"{name.upper()} = {json.dumps(getattr(sub, name).tolist())}")
    return "\n".join(lines) + "\n"


def construct_digests(tmp_path) -> dict[str, str]:
    sub_file = tmp_path / "sub.cfg"
    sub_file.write_text(_subchannel_config(0, 1), encoding="utf-8")
    out = {}
    for tag, size in (("N40", ["--num-quanta", "40"]), ("auto", [])):
        channel, report = tmp_path / f"{tag}.txt", tmp_path / f"{tag}.json"
        code = main(["construct", "--subchannels", str(sub_file), *size,
                     "--out", str(channel), "--report", str(report)])
        assert code == 0
        out[f"{tag}/channel"] = sha256_text(channel.read_text(encoding="utf-8"))
        out[f"{tag}/report"] = sha256_text(report.read_text(encoding="utf-8"))
    return out


def erasure_stats_digest(capsys) -> str:
    capsys.readouterr()
    assert main(["erasure", "stats", "--eps", "0.499", "--gamma", "0.25"]) == 0
    return sha256_text(capsys.readouterr().out)


def erasure_cell_digest(capsys, eps: str, gamma: str, *extra: str) -> tuple[int, str]:
    capsys.readouterr()
    code = main(["erasure", "stats", "--eps", eps, "--gamma", gamma, *extra])
    return code, sha256_text(capsys.readouterr().out)


def test_experiment_tables():
    assert table_digests() == TABLE_DIGESTS


def test_construct_channel_and_report(tmp_path):
    assert construct_digests(tmp_path) == CONSTRUCT_DIGESTS


def test_erasure_stats(capsys):
    assert erasure_stats_digest(capsys) == ERASURE_STATS_DIGEST


def test_erasure_stats_independent_of_blas_threads():
    src = str(Path(thermops.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "thermops", "erasure", "stats", "--eps", "0.499", "--gamma", "0.25"],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args", sorted(ERASURE_CELL_DIGESTS))
def test_erasure_cells(capsys, args):
    assert erasure_cell_digest(capsys, *args) == ERASURE_CELL_DIGESTS[args]
