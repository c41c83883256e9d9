import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import thermops
from thermops.channels import random_gibbs_stochastic
from thermops.cli import main
from thermops.construction import MAX_BATTERY_SIZE
from thermops.erasure import oscillator_erasure_subchannels
from thermops.errors import DomainError
from thermops.fileio import (
    channel_from_text,
    channel_to_text,
    csv_text,
    parse_flat_config,
    sha256_text,
    state_from_config,
    subchannels_from_config,
)
from thermops.spectra import EnergySpectrum


class TestFlatConfig:
    def test_parse_scalars_lists_and_strings(self):
        cfg = parse_flat_config(
            """
            # comment
            beta = 2.5
            trials = 10   # trailing comment
            levels = [0.0, 0.5, 1.0]
            tag = hello
            """
        )
        assert cfg == {"beta": 2.5, "trials": 10, "levels": [0.0, 0.5, 1.0], "tag": "hello"}

    def test_rejects_malformed_line(self):
        with pytest.raises(DomainError):
            parse_flat_config("beta 2.5")

    def test_state_from_levels_and_probs(self):
        state, beta = state_from_config({"levels": [0.0, 1.0], "probs": [0.25, 0.75], "beta": 2.0})
        assert beta == 2.0
        assert_allclose(state.probs, [0.25, 0.75])

    def test_state_from_ladder_defaults_to_gibbs(self):
        state, beta = state_from_config({"delta": 0.5, "num_levels": 4})
        assert len(state.probs) == 4
        assert abs(state.probs.sum() - 1.0) < 1e-12
        assert np.all(np.diff(state.probs) < 0)

    def test_state_requires_geometry(self):
        with pytest.raises(DomainError):
            state_from_config({"probs": [1.0]})


class TestChannelFile:
    def test_round_trip_is_bit_exact(self):
        sys = EnergySpectrum((0.0, 1.0 / 3.0), "sys")
        bat = EnergySpectrum.oscillator(5, np.pi / 3)
        ch = random_gibbs_stochastic(sys, bat, 0.7, seed=11, num_mixes=30)
        back = channel_from_text(channel_to_text(ch))
        assert np.array_equal(back.matrix, ch.matrix)
        assert back.sys_in.levels == ch.sys_in.levels
        assert back.battery.levels == ch.battery.levels
        assert back.beta == ch.beta

    def test_header_shape_checked(self):
        with pytest.raises(DomainError):
            channel_from_text("1 2 3\n0\n0\n0\n1\n")

    def test_malformed_text_rejected(self):
        for text in ("", "1 1 2 x\n0\n0\n0 1\n1 0\n0 1\n", "1 1 2 1\n0\n0\n0 1\n1 0\n0 z\n"):
            with pytest.raises(DomainError):
                channel_from_text(text)


class TestCsv:
    def test_floats_use_17_digits(self):
        text = csv_text(["a", "b"], [[np.pi, 1]])
        assert text == f"a,b\n{np.pi:.17g},1\n"

    def test_hash_stable(self):
        assert sha256_text("x") == sha256_text("x")


class TestSubchannelConfig:
    def test_loads_blocks(self):
        cfg = {
            "delta": float(np.log(2)),
            "beta": 1.0,
            "sys_levels": [0.0, 0.0],
            "R00": [[0.0, 0.0], [0.5, 0.5]],
            "R01": [[0.5, 0.0], [0.0, 0.5]],
            "R10": [[1.0, 1.0], [0.0, 0.0]],
            "R11": [[0.0, 0.0], [0.0, 0.0]],
        }
        sub = subchannels_from_config(cfg)
        stoch, gibbs = sub.residuals()
        assert stoch == 0.0 and gibbs < 1e-15

    def test_missing_keys_reported(self):
        with pytest.raises(DomainError):
            subchannels_from_config({"delta": 1.0})


class TestCli:
    def test_module_entry_point(self):
        # `python -m thermops` with the package found the way this process found it.
        src = str(Path(thermops.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "thermops", "--help"], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage:" in proc.stdout

    def test_run_example3_writes_manifest_and_tables(self, tmp_path):
        out = tmp_path / "e3"
        code = main(["run", "example3", "--num-quanta", "32", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "example3_manifest.json").read_text())
        assert manifest["passed"] is True
        assert manifest["config"]["num_quanta"] == 32
        csv = (out / "example3_conditional_average.csv").read_text()
        assert csv.splitlines()[0] == "k,value"
        assert manifest["outputs"]["example3_conditional_average.csv"] == sha256_text(csv)

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "certify-thm1", "--trials", "20", "--out", str(out)]) == 0
        csv_a = (a / "certify_thm1.csv").read_bytes()
        csv_b = (b / "certify_thm1.csv").read_bytes()
        assert csv_a == csv_b

    @pytest.mark.parametrize("name", ["certify-thm1", "certify-thm2", "certify-thm4"])
    def test_certify_sweep_honours_beta(self, tmp_path, name):
        tables = []
        for beta in ("1", "2"):
            out = tmp_path / beta
            assert main(["run", name, "--beta", beta, "--trials", "3", "--out", str(out)]) == 0
            tables.append((out / f"{name.replace('-', '_')}.csv").read_bytes())
        assert tables[0] != tables[1]

    def test_certify_thm2_on_a_long_ladder(self, tmp_path):
        # beta * N * delta is far above 700 here, so the battery's Gibbs terms must stay in log space.
        assert main(["run", "certify-thm2", "--num-quanta", "1000", "--trials", "3", "--out", str(tmp_path / "o")]) == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 3\n")
        code = main(["run", "fig4", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_integer_config_value_for_float_key(self, tmp_path):
        cfg = tmp_path / "int.cfg"
        cfg.write_text("beta = 1\n")
        assert main(["run", "fig4", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "fig4_manifest.json").read_text())
        assert manifest["config"]["beta"] == 1.0 and isinstance(manifest["config"]["beta"], float)

    def test_example2_exit_codes(self, tmp_path):
        assert main(["run", "example2", "--a", "0.6", "--out", str(tmp_path / "x")]) == 0
        manifest = json.loads((tmp_path / "x" / "example2_manifest.json").read_text())
        assert manifest["summary"]["consistent"] is False

    def test_feasibility_check(self, tmp_path, capsys):
        p = tmp_path / "p.cfg"
        q = tmp_path / "q.cfg"
        p.write_text("levels = [0.0, 0.0]\nprobs = [1.0, 0.0]\n")
        q.write_text("levels = [0.0, 0.0]\nprobs = [0.5, 0.5]\n")
        code = main(["feasibility", "check", str(p), str(q), "--beta", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["curve_criterion"] is True
        assert payload["lp_transport"] is True
        assert payload["agree"] is True

    def test_construct_and_validate_round_trip(self, tmp_path, capsys):
        sub_file = tmp_path / "sub.cfg"
        sub_file.write_text(
            "\n".join(
                [
                    "delta = 0.6931471805599453",
                    "beta = 1.0",
                    "sys_levels = [0.0, 0.0]",
                    "R00 = [[0.0, 0.0], [0.5, 0.5]]",
                    "R01 = [[0.5, 0.0], [0.0, 0.5]]",
                    "R10 = [[1.0, 1.0], [0.0, 0.0]]",
                    "R11 = [[0.0, 0.0], [0.0, 0.0]]",
                ]
            )
            + "\n"
        )
        channel_file = tmp_path / "channel.txt"
        report_file = tmp_path / "report.json"
        code = main(
            [
                "construct",
                "--subchannels", str(sub_file),
                "--out", str(channel_file),
                "--report", str(report_file),
            ]
        )
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["ok"] is True
        assert report["tail"] <= 1e-12
        capsys.readouterr()
        assert main(["validate", str(channel_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_erasure_stats_subcommand(self, capsys):
        code = main(["erasure", "stats", "--eps", "0.1", "--gamma", "0.25"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_rel_err"] < 1e-8

    def test_certify_alias(self, tmp_path):
        code = main(["certify", "thm1", "--trials", "5", "--out", str(tmp_path / "c")])
        assert code == 0
        assert (tmp_path / "c" / "certify-thm1_manifest.json").exists()

    def test_fig_alias(self, tmp_path):
        assert main(["fig4", "--out", str(tmp_path / "f")]) == 0

    def test_one_parser_serves_every_subcommand(self, tmp_path, capsys, monkeypatch):
        import thermops.cli as cli

        def stats(*extra):
            assert main(["erasure", "stats", "--eps", "0.3", "--gamma", "0.2", *extra]) == 0
            return json.loads(capsys.readouterr().out)

        def config(name, out, *extra):
            assert main(["run", name, "--out", str(tmp_path / out), *extra]) == 0
            capsys.readouterr()
            return json.loads((tmp_path / out / f"{name}_manifest.json").read_text())["config"]

        stats()  # the parser exists from here on; no later call may build another
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built twice"))
        assert stats("--num-quanta", "120")["num_quanta"] == 120
        assert stats()["num_quanta"] == 83  # automatic again: no flag value carries over
        assert config("example2", "a", "--a", "0.5")["a"] == 0.5
        assert config("example2", "b")["a"] == 0.6
        assert config("example3", "c", "--num-quanta", "16")["num_quanta"] == 16
        assert config("fig4", "d") == {"beta": 1.0}
        assert main(["certify", "thm4", "--trials", "2", "--json", "--out", str(tmp_path / "e")]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["trials"] == 2
        assert main(["run", "certify-thm4", "--out", str(tmp_path / "f"), "--trials", "3"]) == 0
        assert capsys.readouterr().out.startswith("certify-thm4: ok")


def _error_record(capsys) -> dict:
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(record) == {"error", "message"}
    return record


class TestCliErrors:
    """Bad input ends in one JSON error record on stderr and exit code 2."""

    def test_validate_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["validate", str(empty)]) == 2
        assert _error_record(capsys)["error"] == "DomainError"

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = abc\n")
        assert main(["run", "fig4", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        record = _error_record(capsys)
        assert record["error"] == "DomainError" and "beta" in record["message"]
        assert not (tmp_path / "o").exists()

    def test_erasure_stats_short_ladder(self, capsys):
        assert main(["erasure", "stats", "--eps", "0.1", "--gamma", "0.25", "--num-quanta", "1"]) == 2
        assert _error_record(capsys)["error"] == "DomainError"

    def test_oracle_feasibility_with_one_level(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("max_dim = 1\n")
        assert main(["run", "oracle-feasibility", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        record = _error_record(capsys)
        assert record["error"] == "DomainError" and "max_dim" in record["message"]
        assert not (tmp_path / "o").exists()

    def test_certify_with_empty_band(self, tmp_path, capsys):
        assert main(["run", "certify-thm1", "--num-quanta", "3", "--out", str(tmp_path / "o")]) == 2
        assert "band" in _error_record(capsys)["message"]

    def test_construct_refuses_large_automatic_size(self, tmp_path, capsys):
        sub = oscillator_erasure_subchannels(0.495)
        sub_file = tmp_path / "sub.cfg"
        sub_file.write_text(
            f"delta = {float(sub.delta)!r}\nbeta = 1.0\nsys_levels = [0.0, 0.0]\n"
            + "".join(f"{name} = {json.dumps(getattr(sub, name.lower()).tolist())}\n"
                      for name in ("R00", "R01", "R10", "R11"))
        )
        out = tmp_path / "channel.txt"
        code = main(["construct", "--subchannels", str(sub_file), "--out", str(out),
                     "--report", str(tmp_path / "report.json")])
        assert code == 2
        message = _error_record(capsys)["message"]
        assert "N = 2777" in message and f"N = {MAX_BATTERY_SIZE}" in message
        assert not out.exists()

    def test_construct_invalid_subchannels(self, tmp_path, capsys):
        # R00 = R01 = identity: every column of the battery-0 blocks sums to 2.
        sub_file = tmp_path / "sub.cfg"
        sub_file.write_text(
            "delta = 0.5\nbeta = 1.0\nsys_levels = [0.0, 0.0]\n"
            "R00 = [[1.0, 0.0], [0.0, 1.0]]\nR01 = [[1.0, 0.0], [0.0, 1.0]]\n"
            "R10 = [[0.0, 0.0], [0.0, 0.0]]\nR11 = [[0.0, 0.0], [0.0, 0.0]]\n"
        )
        out, report = tmp_path / "channel.txt", tmp_path / "report.json"
        code = main(["construct", "--subchannels", str(sub_file), "--num-quanta", "5",
                     "--out", str(out), "--report", str(report)])
        assert code == 2
        record = _error_record(capsys)
        assert record["error"] == "InvalidSubchannels" and "stochasticity" in record["message"]
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "fig2a", "fig2b", "fig4"])
    def test_seed_on_an_experiment_that_draws_nothing(self, tmp_path, capsys, name):
        assert main(["run", name, "--seed", "7", "--out", str(tmp_path / "o")]) == 2
        record = _error_record(capsys)
        assert record["error"] == "DomainError"
        assert f"unknown config keys for {name}: ['seed']" in record["message"]
        assert not (tmp_path / "o").exists()

    def test_experiment_flag_it_does_not_take(self, tmp_path, capsys):
        assert main(["fig4", "--trials", "3", "--out", str(tmp_path / "o")]) == 2
        record = _error_record(capsys)
        assert record["error"] == "DomainError" and "trials" in record["message"]

    @pytest.mark.parametrize("command", ["validate", "run", "construct", "feasibility"])
    def test_missing_input_file(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.cfg")
        argv = {
            "validate": ["validate", missing],
            "run": ["run", "fig4", "--config", missing, "--out", str(tmp_path / "o")],
            "construct": ["construct", "--subchannels", missing, "--out",
                          str(tmp_path / "c.txt"), "--report", str(tmp_path / "r.json")],
            "feasibility": ["feasibility", "check", missing, missing, "--beta", "1.0"],
        }[command]
        assert main(argv) == 2
        record = _error_record(capsys)
        assert record["error"] == "FileNotFoundError" and "missing.cfg" in record["message"]

    def test_non_numeric_config_value(self, tmp_path, capsys):
        sub_file = tmp_path / "sub.cfg"
        sub_file.write_text(
            'delta = 0.5\nbeta = 1.0\nsys_levels = [0.0, "abc"]\n'
            + "".join(f"{name} = [[0.5, 0.5], [0.5, 0.5]]\n" for name in ("R00", "R01", "R10", "R11"))
        )
        code = main(["construct", "--subchannels", str(sub_file), "--out",
                     str(tmp_path / "c.txt"), "--report", str(tmp_path / "r.json")])
        assert code == 2
        record = _error_record(capsys)
        assert record["error"] == "DomainError" and "sys_levels" in record["message"]

    def test_feasibility_without_beta(self, tmp_path, capsys):
        p = tmp_path / "p.cfg"
        q = tmp_path / "q.cfg"
        p.write_text("levels = [0.0, 0.0]\nprobs = [1.0, 0.0]\n")
        q.write_text("levels = [0.0, 0.0]\nprobs = [0.5, 0.5]\n")
        assert main(["feasibility", "check", str(p), str(q)]) == 2
        record = _error_record(capsys)
        assert record["error"] == "DomainError" and "beta" in record["message"]

    @pytest.mark.parametrize(
        "beta_p, beta_q, flag",
        [(0.1, 5.0, None), (5.0, 0.1, None), (1.0, 1.0, 2.0), (None, 5.0, 1.0), (5.0, None, 1.0)],
    )
    def test_feasibility_with_conflicting_beta(self, tmp_path, capsys, beta_p, beta_q, flag):
        files = []
        for name, beta in (("p.cfg", beta_p), ("q.cfg", beta_q)):
            path = tmp_path / name
            path.write_text("delta = 0.5\nnum_levels = 3\n" + ("" if beta is None else f"beta = {beta}\n"))
            files.append(str(path))
        argv = ["feasibility", "check", *files] + ([] if flag is None else ["--beta", str(flag)])
        assert main(argv) == 2
        record = _error_record(capsys)
        assert record["error"] == "DomainError" and "beta" in record["message"]

    @pytest.mark.parametrize("flag", ["nan", "-1", "0"])
    def test_feasibility_with_bad_beta(self, tmp_path, capsys, flag):
        p = tmp_path / "p.cfg"
        q = tmp_path / "q.cfg"
        p.write_text("levels = [0.0, 0.5]\nprobs = [0.7, 0.3]\n")
        q.write_text("levels = [0.0, 0.5]\nprobs = [0.6, 0.4]\n")
        assert main(["feasibility", "check", str(p), str(q), "--beta", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no verdicts printed
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "DomainError" and "beta" in record["message"]

    @pytest.mark.parametrize("flag", [None, 1.0])
    def test_feasibility_with_agreeing_beta(self, tmp_path, capsys, flag):
        p = tmp_path / "p.cfg"
        q = tmp_path / "q.cfg"
        p.write_text("levels = [0.0, 0.5]\nprobs = [0.7, 0.3]\nbeta = 1.0\n")
        q.write_text("levels = [0.0, 0.5]\nprobs = [0.6, 0.4]\nbeta = 1.0\n")
        argv = ["feasibility", "check", str(p), str(q)] + ([] if flag is None else ["--beta", str(flag)])
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["beta"] == 1.0
