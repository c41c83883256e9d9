"""Command-line experiment runner and file tools.

Every `run` invocation writes its tables plus a manifest JSON (config echo,
sha256 of each output, wall time, failed assertions) and exits 0 only if
all of the experiment's assertions passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path


from .channels import validate
from .construction import (
    MAX_BATTERY_SIZE,
    auto_battery_size,
    extend_to_oscillator,
    verify_extension,
)
from .erasure import oscillator_erasure_stats
from .errors import DomainError, ThermopsError
from .experiments import EXPERIMENTS, run_experiment
from .fileio import (
    load_channel,
    load_flat_config,
    load_state,
    load_subchannels,
    sha256_text,
    write_channel,
)
from .feasibility import lp_feasible_transport, thermo_majorizes


def _experiment_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.config:
        overrides.update(load_flat_config(args.config))
    for key in ("seed", "beta", "trials", "num_quanta", "a"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    return overrides


def _write_outputs(result, out_dir: Path, as_json: bool, started: float) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for fname, text in result.tables.items():
        path = out_dir / fname
        path.write_text(text, encoding="utf-8")
        hashes[fname] = sha256_text(text)
    manifest = {
        "experiment": result.name,
        "reproduces": result.reproduces,
        "config": result.config,
        "outputs": hashes,
        "wall_time_s": round(time.time() - started, 6),
        "passed": result.passed,
        "failures": result.failures,
        "summary": result.summary,
    }
    manifest_path = out_dir / f"{result.name}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if as_json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        status = "ok" if result.passed else "FAILED"
        print(f"{result.name}: {status}; outputs in {out_dir}")
        for failure in result.failures:
            print(f"  assertion failed: {failure}")
    return manifest_path


def _cmd_run(args: argparse.Namespace) -> int:
    started = time.time()
    result = run_experiment(args.experiment, _experiment_overrides(args))
    _write_outputs(result, Path(args.out), args.json, started)
    return 0 if result.passed else 1


def _cmd_feasibility(args: argparse.Namespace) -> int:
    p, beta_p = load_state(args.state_p, args.beta)
    q, beta_q = load_state(args.state_q, args.beta)
    # load_state returns --beta for a file without its own `beta`, so any
    # two different values here are a real conflict.
    betas = {beta_p, beta_q} | ({args.beta} if args.beta is not None else set())
    if len(betas) > 1:
        raise DomainError(
            f"conflicting beta values {sorted(betas)} from the state files and --beta; "
            "both states and the check need one beta"
        )
    beta = beta_p
    curve = thermo_majorizes(p, q, beta)
    lp = lp_feasible_transport(p, q, beta)
    payload = {
        "beta": beta,
        "curve_criterion": bool(curve),
        "lp_transport": bool(lp),
        "agree": bool(curve == lp),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if curve == lp else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    sub = load_subchannels(args.subchannels)
    n = args.num_quanta
    if n is None:
        n = auto_battery_size(sub)
        if n > MAX_BATTERY_SIZE:
            dim = sub.dim * (n + 1)
            raise DomainError(
                f"automatic battery size N = {n} needs a dense {dim} x {dim} channel "
                f"({8e-6 * dim * dim:.0f} MB); construct sizes channels automatically up to "
                f"N = {MAX_BATTERY_SIZE}, so pass --num-quanta to choose N"
            )
    channel = extend_to_oscillator(sub, n)
    write_channel(args.out, channel)
    report = verify_extension(channel, sub)
    payload = {
        "num_quanta": n,
        "tail": report.tail,
        "stochasticity_residual": report.validation.max_stochasticity_residual,
        "gibbs_residual": report.validation.max_gibbs_residual,
        "interior_eti_holds": report.eti.holds,
        "interior_eti_violation": report.eti.max_violation,
        "drop_blocks_uniform": report.blocks_ok,
        "ok": report.ok,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(args.report).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0 if report.ok else 1


def _cmd_erasure_stats(args: argparse.Namespace) -> int:
    report = oscillator_erasure_stats(args.eps, args.gamma, args.num_quanta, args.beta)
    payload = {
        "eps": report.eps,
        "gamma": report.gamma,
        "eps_tot": report.eps_tot,
        "num_quanta": report.num_quanta,
        "tail": report.tail,
        "avg_closed": report.avg_closed,
        "var_closed": report.var_closed,
        "avg_sim": report.avg_sim,
        "var_sim": report.var_sim,
        "avg_rel_err": report.avg_rel_err,
        "var_rel_err": report.var_rel_err,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    ok = report.avg_rel_err < 1e-8 and report.var_rel_err < 1e-8
    return 0 if ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    channel = load_channel(args.channel)
    report = validate(channel)
    payload = {
        "ok": report.ok,
        "max_stochasticity_residual": report.max_stochasticity_residual,
        "max_gibbs_residual": report.max_gibbs_residual,
        "entry_min": report.entry_min,
        "entry_max": report.entry_max,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermops",
        description="Thermal-operation experiments with explicit battery models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every experiment command takes these flags; an experiment without the
    # matching config key rejects the override in run_experiment.
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="flat key = value config file")
    flags.add_argument("--seed", type=int)
    flags.add_argument("--beta", type=float)
    flags.add_argument("--trials", type=int)
    flags.add_argument("--num-quanta", "--N", dest="num_quanta", type=int)
    flags.add_argument("--a", type=float)
    flags.add_argument("--out", default="out", help="output directory")
    flags.add_argument("--json", action="store_true", help="print the manifest JSON")

    defaults_doc = "\n".join(
        f"  {name}: {defaults}" for name, (defaults, _) in sorted(EXPERIMENTS.items())
    )
    run_p = sub.add_parser(
        "run",
        parents=[flags],
        help="run a named experiment",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="experiment config keys and defaults; a config-file key or flag outside an\n"
        "experiment's set is rejected (only the seeded experiments take --seed):\n" + defaults_doc,
    )
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.set_defaults(fn=_cmd_run)

    feas = sub.add_parser("feasibility", help="transport feasibility oracles")
    feas_sub = feas.add_subparsers(dest="feas_command", required=True)
    check = feas_sub.add_parser("check", help="compare both oracles on two state files")
    check.add_argument("state_p")
    check.add_argument("state_q")
    check.add_argument("--beta", type=float, default=None)
    check.set_defaults(fn=_cmd_feasibility)

    cons = sub.add_parser("construct", help="extend wit subchannels to a ladder battery")
    cons.add_argument("--subchannels", required=True)
    cons.add_argument("--num-quanta", "--N", dest="num_quanta", type=int, default=None)
    cons.add_argument("--out", required=True, help="channel file to write")
    cons.add_argument("--report", required=True, help="extension report JSON to write")
    cons.set_defaults(fn=_cmd_construct)

    eras = sub.add_parser("erasure", help="erasure case studies")
    eras_sub = eras.add_subparsers(dest="erasure_command", required=True)
    stats = eras_sub.add_parser("stats", help="closed forms vs ladder simulation")
    stats.add_argument("--eps", type=float, required=True)
    stats.add_argument("--gamma", type=float, required=True)
    stats.add_argument("--beta", type=float, default=1.0)
    stats.add_argument("--num-quanta", "--N", dest="num_quanta", type=int, default=None)
    stats.set_defaults(fn=_cmd_erasure_stats)

    cert = sub.add_parser(
        "certify", parents=[flags], help="aliases for the certification experiments"
    )
    cert.add_argument("theorem", choices=["thm1", "thm2", "thm4"])
    cert.set_defaults(fn=lambda a: _cmd_run(_alias(a, f"certify-{a.theorem}")))

    for fig in ("fig2a", "fig2b", "fig4"):
        fig_p = sub.add_parser(fig, parents=[flags], help=f"alias for `run {fig}`")
        fig_p.set_defaults(fn=lambda a, name=fig: _cmd_run(_alias(a, name)))

    fig2_p = sub.add_parser(
        "fig2", parents=[flags], help="run both correction sweeps (fig2a and fig2b)"
    )
    fig2_p.set_defaults(
        fn=lambda a: max(_cmd_run(_alias(a, "fig2a")), _cmd_run(_alias(a, "fig2b")))
    )

    val = sub.add_parser("validate", help="validate a channel file")
    val.add_argument("channel")
    val.set_defaults(fn=_cmd_validate)
    return parser


def _alias(args: argparse.Namespace, experiment: str) -> argparse.Namespace:
    ns = argparse.Namespace(**vars(args))
    ns.experiment = experiment
    return ns


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process: parsing leaves the parser as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
    except (ThermopsError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
