"""Named experiments behind the CLI.

Each experiment is a pure function from a validated config to tables
(CSV text), a JSON-able summary, and a list of failed assertions; the CLI
adds file writing, hashing, and exit status.  Identical configs give
byte-identical tables.  Only the experiments that draw at random
(oracle-feasibility and the certify sweeps) have a `seed` key.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .batteries import average_work, theorem4_check, variance, work_distribution
from .bounds import (
    conditional_jarzynski_band,
    corollary1_correction,
    gaussian_battery_profile,
    theorem1_certify,
    theorem2_bound,
)
from .channels import ThermalChannel, WitSubchannels, random_gibbs_stochastic
from .construction import extend_to_oscillator
from .erasure import (
    oscillator_average_work,
    oscillator_erasure_subchannels,
    oscillator_variance,
    weight_average_work,
    weight_variance,
)
from .errors import DomainError, PreconditionViolated
from .feasibility import LP_TOL, lp_transport_residual, thermo_majorizes
from .fileio import csv_text
from .spectra import DiagonalState, EnergySpectrum, gibbs_state

LN2 = float(np.log(2.0))


@dataclass
class ExperimentResult:
    name: str
    reproduces: str
    config: dict[str, Any]
    tables: dict[str, str] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def random_wit_subchannels(seed: int, trial: int, beta: float = 1.0) -> WitSubchannels:
    """Seeded wit operation: random partial beta-swaps on a (sys x wit) space.

    The gap is drawn as uniform(0.8, 1.6) / beta, so beta*delta keeps its
    range at every beta (and at beta = 1 every draw keeps its bits), and the
    extension tail ||r01^40||_1 stays below 1e-12 (its largest value over
    seeds 0 and 1, trials 0-199, at beta from 0.1 to 20 was 2.5e-16).
    """
    rng = _trial_rng(seed, trial)
    d = int(rng.integers(2, 4))
    sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, d))), "sys")
    delta = float(rng.uniform(0.8, 1.6)) / beta
    channel = random_gibbs_stochastic(
        sys, EnergySpectrum.wit(delta), beta, seed=int(rng.integers(2**31)), num_mixes=25
    )
    return WitSubchannels.from_channel(channel)


def _random_battery_state(rng: np.random.Generator, battery: EnergySpectrum) -> DiagonalState:
    """Mix of draw styles, always with some vacuum-occupied cases."""
    nb = len(battery)
    style = int(rng.integers(3))
    if style == 0:
        p = rng.dirichlet(np.ones(nb))
    elif style == 1:  # vacuum-heavy
        p = rng.dirichlet(np.ones(nb))
        p0 = float(rng.uniform(0.3, 0.95))
        p = (1 - p0) * p / p.sum()
        p[0] += p0
    else:  # single interior eigenstate
        p = np.zeros(nb)
        p[int(rng.integers(1, nb))] = 1.0
    return DiagonalState(p / p.sum(), battery)


def linear_fit_r2(x: np.ndarray, y: np.ndarray) -> float:
    """R^2 of a least-squares line; a zero-variance series counts as a perfect fit."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_res = float(np.sum((y - a @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    scale = len(y) * (1.0 + float(np.mean(y) ** 2))
    if ss_tot <= 1e-18 * scale:
        return 1.0
    return 1.0 - ss_res / ss_tot


def brute_force_conditional_average(channel: ThermalChannel, k: int) -> float:
    """Elementwise loop evaluation of the conditional exponential average.

    Independent oracle for conditional_jarzynski_band: no vectorization, no
    log-space tricks.
    """
    r4 = channel.blocks()
    eps = channel.battery.levels
    beta = channel.beta
    total = 0.0
    for s in range(channel.d_in):
        weight = np.exp(-beta * channel.sys_in.levels[s])
        for sp in range(channel.d_out):
            for kp in range(channel.n_battery):
                r = r4[sp, kp, s, k]
                if r > 0.0:
                    total += weight * r * np.exp(beta * (eps[kp] - eps[k]))
    return total


# ---------------------------------------------------------------------------
# experiment bodies


def thermalization_subchannels(beta: float, delta: float) -> WitSubchannels:
    """Wit operation sending every input to tau_S (x) tau_W."""
    sys = EnergySpectrum.trivial(2, "qubit")
    tau = np.full(2, 0.5)
    e = np.exp(-beta * delta)
    g0, g1 = 1.0 / (1.0 + e), e / (1.0 + e)
    to_tau = np.outer(tau, np.ones(2))
    return WitSubchannels(
        r00=g0 * to_tau,
        r01=g1 * to_tau,
        r10=g0 * to_tau,
        r11=g1 * to_tau,
        delta=delta,
        beta=beta,
        system=sys,
    )


def run_example1(cfg: dict[str, Any]) -> ExperimentResult:
    """Thermalizing a wit battery yields positive average work; the ladder
    extension restores the corrected second law."""
    res = ExperimentResult("example1", "wit-thermalization-average-work", cfg)
    beta, delta = cfg["beta"], cfg["delta"]
    sub = thermalization_subchannels(beta, delta)
    wit_channel = sub.as_channel()
    sys = gibbs_state(sub.system, beta)
    bat0 = DiagonalState.pure(0, wit_channel.battery)
    wd = work_distribution(wit_channel, sys, bat0)

    expected_avg = delta / (1.0 + np.exp(beta * delta))
    expected_up = np.exp(-beta * delta) / (1.0 + np.exp(-beta * delta))
    res.check(abs(wd.prob_of(delta) - expected_up) < 1e-12,
              f"p(delta) = {wd.prob_of(delta)} != {expected_up}")
    res.check(abs(average_work(wd) - expected_avg) < 1e-12,
              f"wit average work {average_work(wd)} != {expected_avg}")
    res.check(average_work(wd) > 0.0, "thermalization should yield positive average work")

    ext = extend_to_oscillator(sub, cfg["num_quanta"])
    k_probe = cfg["k_probe"]
    bat = DiagonalState.pure(k_probe, ext.battery)
    report = theorem2_bound(ext, sys, bat, k_min=1)
    res.check(report.slack >= -1e-10, f"extension second-law slack {report.slack} < 0")

    res.tables["example1_work_distribution.csv"] = csv_text(
        ["w", "p"], [[float(w), float(p)] for w, p in zip(wd.support, wd.probs)]
    )
    res.summary = {
        "beta": beta,
        "delta": delta,
        "wit_average_work": average_work(wd),
        "wit_second_law_excess": average_work(wd),  # -dF = 0 for tau -> tau
        "extension_avg_work": report.avg_work,
        "extension_bound_slack": report.slack,
    }
    return res


def run_example2(cfg: dict[str, Any]) -> ExperimentResult:
    """Point-mass work for the map rho -> a|0> + b|1> is consistent only at a = 1/2."""
    res = ExperimentResult("example2", "weight-deterministic-work-obstruction", cfg)
    beta, tol = cfg["beta"], cfg["tol"]
    values = sorted(set([0.4, 0.45, 0.5, 0.55, float(cfg["a"])]))
    rows = []
    for a in values:
        if not 0.0 < a < 1.0:
            raise DomainError(f"a = {a} outside (0, 1)")
        b = 1.0 - a
        # Fixed-point condition per output level forces both shift values.
        w_star_0 = -np.log(2.0 * a) / beta
        w_star_1 = -np.log(2.0 * b) / beta
        gap = abs(w_star_0 - w_star_1)
        consistent = gap <= tol
        rows.append([float(a), float(w_star_0), float(w_star_1), float(gap), int(consistent)])
        if abs(a - 0.5) < 1e-15:
            res.check(consistent, f"a = 1/2 must be consistent, gap {gap}")
        else:
            res.check(not consistent, f"a = {a} must be inconsistent, gap {gap}")
    res.tables["example2_obstruction.csv"] = csv_text(
        ["a", "w_star_branch0", "w_star_branch1", "gap", "consistent"], rows
    )
    a = float(cfg["a"])
    res.summary = {
        "a": a,
        "consistent": bool(abs(a - 0.5) < 1e-15),
        "gap": abs(np.log(2 * a) - np.log(2 * (1 - a))) / beta,
    }
    return res


def run_example3(cfg: dict[str, Any]) -> ExperimentResult:
    """Conditional exponential averages of the vacuum-resetting ladder map:
    constant above the vacuum, growing affinely with the ladder size from it."""
    res = ExperimentResult("example3", "conditional-average-vacuum-scaling", cfg)
    beta = cfg["beta"]
    n = int(cfg["num_quanta"])
    values_by_n = {}
    for n_run in (n // 2, n):
        sub = oscillator_erasure_subchannels(0.0, beta)
        channel = extend_to_oscillator(sub, n_run)
        vals = conditional_jarzynski_band(channel, np.arange(n_run + 1)).tolist()
        oracle = [brute_force_conditional_average(channel, k) for k in range(n_run + 1)]
        for k, (a, b) in enumerate(zip(vals, oracle)):
            res.check(abs(a - b) <= 1e-12 * max(1.0, abs(b)),
                      f"N={n_run} k={k}: value {a} disagrees with oracle {b}")
        above = np.array(vals[1:])
        res.check(float(np.max(np.abs(above - above[0]))) <= 1e-12,
                  f"N={n_run}: values above the vacuum not constant")
        values_by_n[n_run] = vals

    v0_small, v0_big = values_by_n[n // 2][0], values_by_n[n][0]
    slope = (v0_big - v0_small) / (n - n // 2)
    res.check(abs(slope - 1.0) <= 1e-10, f"vacuum-row growth slope {slope} != 1")
    res.check(abs(values_by_n[n][1] - values_by_n[n // 2][1]) <= 1e-12,
              "above-vacuum value depends on N")

    res.tables["example3_conditional_average.csv"] = csv_text(
        ["k", "value"], [[k, float(v)] for k, v in enumerate(values_by_n[n])]
    )
    res.summary = {
        "num_quanta": n,
        "vacuum_value": v0_big,
        "invariant_value": values_by_n[n][1],
        "growth_slope": slope,
    }
    return res


def run_oracle_feasibility(cfg: dict[str, Any]) -> ExperimentResult:
    """Curve criterion vs LP transport feasibility on random instances."""
    res = ExperimentResult("oracle-feasibility", "transport-order-equivalence", cfg)
    seed, trials, max_dim, beta = cfg["seed"], cfg["trials"], cfg["max_dim"], cfg["beta"]
    if max_dim < 2:
        raise DomainError(f"max_dim = {max_dim}: the instances need at least two levels")
    rows = []
    disagreements = 0
    feasible_count = 0
    residuals: dict[bool, list[float]] = {True: [], False: []}  # LP residuals by LP verdict
    for t in range(trials):
        rng = _trial_rng(seed, t)
        d = int(rng.integers(2, max_dim + 1))
        spectrum = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.5, d))), "sys")
        p = DiagonalState(rng.dirichlet(np.ones(d)), spectrum)
        if t % 2 == 0:
            q = DiagonalState(rng.dirichlet(np.ones(d)), spectrum)
        else:
            # feasible by construction: push p through a random valid channel
            ch = random_gibbs_stochastic(
                spectrum, EnergySpectrum((0.0,), "none"), beta,
                seed=int(rng.integers(2**31)), num_mixes=3 * d,
            )
            q = DiagonalState(ch.matrix @ p.probs, spectrum)
        curve_says = thermo_majorizes(p, q, beta)
        residual = lp_transport_residual(p, q, beta)
        lp_says = residual <= LP_TOL
        residuals[lp_says].append(residual)
        feasible_count += int(curve_says)
        if curve_says != lp_says:
            disagreements += 1
        rows.append([t, d, int(curve_says), int(lp_says), int(curve_says == lp_says)])
    res.check(disagreements == 0, f"{disagreements} oracle disagreements")
    res.check(0 < feasible_count < trials, "degenerate instance mix")
    res.tables["oracle_feasibility.csv"] = csv_text(
        ["trial", "dim", "curve", "lp", "agree"], rows
    )
    res.summary = {
        "trials": trials,
        "feasible": feasible_count,
        "disagreements": disagreements,
        "max_feasible_lp_residual": max(residuals[True], default=None),
        "min_infeasible_lp_residual": min(residuals[False], default=None),
    }
    return res


def run_certify_thm1(cfg: dict[str, Any]) -> ExperimentResult:
    """Conditional-average bound on seeded random ladder extensions."""
    res = ExperimentResult("certify-thm1", "jarzynski-family-bound-sweep", cfg)
    seed, beta, trials, n, buf, tol = (
        cfg["seed"], cfg["beta"], cfg["trials"], cfg["num_quanta"], cfg["band_buffer"], cfg["tol"],
    )
    rows = []
    worst = np.inf
    for t in range(trials):
        sub = random_wit_subchannels(seed, t, beta)
        channel = extend_to_oscillator(sub, n)
        rng = _trial_rng(seed, 7_000_000 + t)
        sys = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
        report = theorem1_certify(channel, sys, k_min=1, band_buffer=buf, tol=tol)
        k, lhs, rhs, slack = min(report.details["rows"], key=lambda r: r[3])
        rows.append([t, k, float(lhs), float(rhs), float(slack)])
        worst = min(worst, report.worst_slack)
        res.check(report.passed, f"trial {t}: worst slack {report.worst_slack}")
    res.tables["certify_thm1.csv"] = csv_text(["trial", "k", "lhs", "rhs", "slack"], rows)
    res.summary = {"trials": trials, "worst_slack": float(worst)}
    return res


def run_certify_thm2(cfg: dict[str, Any]) -> ExperimentResult:
    """Corrected second law on random (channel, system, battery) triples."""
    res = ExperimentResult("certify-thm2", "second-law-correction-sweep", cfg)
    seed, beta, trials, n, tol = cfg["seed"], cfg["beta"], cfg["trials"], cfg["num_quanta"], cfg["tol"]
    rows = []
    worst = np.inf
    for t in range(trials):
        sub = random_wit_subchannels(seed, t, beta)
        channel = extend_to_oscillator(sub, n)
        rng = _trial_rng(seed, 9_000_000 + t)
        sys = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
        bat = _random_battery_state(rng, channel.battery)
        report = theorem2_bound(channel, sys, bat, k_min=1)
        rows.append([
            t, float(report.avg_work), float(report.delta_F), float(report.A_term),
            float(report.B_term_main), float(report.B_term_appendix), float(report.slack),
        ])
        worst = min(worst, report.slack)
        res.check(report.slack >= -tol, f"trial {t}: slack {report.slack}")
    res.tables["certify_thm2.csv"] = csv_text(
        ["trial", "avg_work", "delta_F", "A", "B_main", "B_appendix", "slack"], rows
    )
    res.summary = {"trials": trials, "worst_slack": float(worst)}
    return res


def run_certify_thm4(cfg: dict[str, Any]) -> ExperimentResult:
    """Variance floor gamma <w>^2 on erasure cells and random extensions."""
    res = ExperimentResult("certify-thm4", "vacuum-variance-floor-sweep", cfg)
    seed, beta, trials, n = cfg["seed"], cfg["beta"], cfg["trials"], cfg["num_quanta"]
    rows = []
    worst = np.inf
    checked = 0
    for eps in (0.0, 0.05, 0.1, 0.2, 0.3):
        for gamma in (0.0, 0.05, 0.1, 0.25, 0.5):
            avg = oscillator_average_work(eps, gamma, beta)
            var = oscillator_variance(eps, gamma, beta)
            margin = var - gamma * avg**2
            worst = min(worst, margin)
            checked += 1
            rows.append(["erasure", float(eps), float(gamma), float(avg), float(var), float(margin)])
            res.check(margin >= -1e-12, f"erasure cell ({eps}, {gamma}): margin {margin}")
    for t in range(trials):
        sub = random_wit_subchannels(seed, t, beta)
        channel = extend_to_oscillator(sub, n)
        rng = _trial_rng(seed, 11_000_000 + t)
        sys = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
        bat = _random_battery_state(rng, channel.battery)
        wd = work_distribution(channel, sys, bat)
        gamma = float(bat.probs[0])
        try:
            report = theorem4_check(wd, gamma)
        except PreconditionViolated:
            rows.append(["random", float(t), gamma, float(average_work(wd)), float(variance(wd)), np.nan])
            continue
        checked += 1
        worst = min(worst, report.worst_slack)
        rows.append(["random", float(t), gamma, float(average_work(wd)), float(variance(wd)), float(report.worst_slack)])
        res.check(report.passed, f"trial {t}: margin {report.worst_slack}")
    res.check(checked > trials // 2, "too few protocols satisfied <w> <= 0")
    res.tables["certify_thm4.csv"] = csv_text(
        ["source", "id_or_eps", "gamma", "avg_work", "variance", "margin"], rows
    )
    res.summary = {"checked": checked, "worst_margin": float(worst)}
    return res


def _fig2_battery(center: float, delta: float, beta: float) -> DiagonalState:
    num_quanta = int(np.ceil((center + 12.0) / delta))
    return gaussian_battery_profile(num_quanta, delta, center, beta)


def run_fig2a(cfg: dict[str, Any]) -> ExperimentResult:
    """Correction versus the cut-off energy for a fixed battery profile."""
    res = ExperimentResult("fig2a", "correction-vs-cutoff-blowup", cfg)
    beta, delta, eps_min, center = cfg["beta"], cfg["delta"], cfg["eps_min"], cfg["center"]
    bat = _fig2_battery(center, delta, beta)
    xs = np.arange(cfg["x_min"], cfg["x_max"] + 1e-9, cfg["x_step"])
    cs = np.array([
        corollary1_correction(x / beta, bat, (2, 0.0), beta, delta, eps_min) for x in xs
    ])
    res.tables["fig2a.csv"] = csv_text(["x", "C"], [[float(x), float(c)] for x, c in zip(xs, cs)])

    low = xs <= center - 12.0
    res.check(bool(np.all(np.diff(cs[low]) < 0)), "no clean exponential decay below the bulk")
    i_min = int(np.argmin(cs))
    res.check(center - 12.0 <= xs[i_min] <= center - 3.0,
              f"minimum at x = {xs[i_min]}, expected just below the bulk")
    res.check(cs[-1] > 1e3 * cs[i_min], "no blow-up once the cut-off reaches the occupied levels")
    res.summary = {"x_at_min": float(xs[i_min]), "C_min": float(cs[i_min]), "C_max": float(cs[-1])}
    return res


def run_fig2b(cfg: dict[str, Any]) -> ExperimentResult:
    """Correction versus the battery's mean energy at a fixed cut-off."""
    res = ExperimentResult("fig2b", "correction-vs-mean-energy-kink", cfg)
    beta, delta, eps_min, eps_star = cfg["beta"], cfg["delta"], cfg["eps_min"], cfg["eps_star"]
    xs = np.arange(cfg["x_min"], cfg["x_max"] + 1e-9, cfg["x_step"])
    cs = []
    for x in xs:
        bat = _fig2_battery(x / beta, delta, beta)
        cs.append(corollary1_correction(eps_star, bat, (2, 0.0), beta, delta, eps_min))
    cs = np.array(cs)
    res.tables["fig2b.csv"] = csv_text(["x", "C"], [[float(x), float(c)] for x, c in zip(xs, cs)])

    window = (xs >= cfg["fit_min"]) & (xs <= cfg["fit_max"])
    r2 = linear_fit_r2(xs[window], np.log(cs[window]))
    res.check(r2 > 0.999, f"ln C not affine over the fit window, R^2 = {r2}")

    fixed_term = 2.0 * np.exp(-beta * (eps_star - eps_min))
    plateau_rel = abs(cs[-1] - fixed_term) / fixed_term
    res.check(plateau_rel < 1e-6, f"no plateau at the fixed-cutoff term, rel dev {plateau_rel}")
    res.check(cs[window][-1] > 10.0 * fixed_term, "no kink: window already at the plateau")
    res.summary = {
        "r_squared": float(r2),
        "plateau": float(cs[-1]),
        "fixed_term": float(fixed_term),
        "plateau_rel_dev": float(plateau_rel),
    }
    return res


def run_fig4(cfg: dict[str, Any]) -> ExperimentResult:
    """Erasure on the weight vs the ladder battery across the total error."""
    res = ExperimentResult("fig4", "erasure-battery-comparison", cfg)
    beta = cfg["beta"]
    grid = [0.0, 1e-6] + [round(0.01 * i, 10) for i in range(1, 50)]
    rows = []
    for et in grid:
        aw = weight_average_work(et, beta)
        vw = weight_variance(et, beta)
        ao = oscillator_average_work(0.0, et, beta)
        vo = oscillator_variance(0.0, et, beta)
        rows.append([float(et), float(aw), float(vw), float(ao), float(vo)])
        if 0.0 < et < 0.5:
            res.check(ao <= aw + 1e-12, f"eps_tot = {et}: ladder average {ao} above weight {aw}")
    res.tables["fig4.csv"] = csv_text(
        ["eps_tot", "avg_w_weight", "var_weight", "avg_w_osc", "var_osc"], rows
    )
    res.check(abs(rows[0][1] + LN2) < 1e-12, f"weight endpoint {rows[0][1]} != -ln 2")
    res.check(abs(rows[0][3] + LN2) < 1e-12, f"ladder endpoint {rows[0][3]} != -ln 2")
    res.check(rows[0][2] == 0.0 and rows[0][4] == 0.0, "endpoint variances not zero")
    res.summary = {
        "endpoint_avg_weight": rows[0][1],
        "endpoint_avg_osc": rows[0][3],
        "rows": len(rows),
    }
    return res


EXPERIMENTS: dict[str, tuple[dict[str, Any], Callable[[dict[str, Any]], ExperimentResult]]] = {
    "example1": (
        {"beta": 1.0, "delta": LN2, "num_quanta": 40, "k_probe": 5},
        run_example1,
    ),
    "example2": ({"beta": 1.0, "a": 0.6, "tol": 1e-12}, run_example2),
    "example3": ({"beta": 1.0, "num_quanta": 64}, run_example3),
    "oracle-feasibility": (
        {"seed": 0, "beta": 1.0, "trials": 500, "max_dim": 5},
        run_oracle_feasibility,
    ),
    "certify-thm1": (
        {"seed": 0, "beta": 1.0, "trials": 200, "num_quanta": 40, "band_buffer": 5, "tol": 1e-10},
        run_certify_thm1,
    ),
    "certify-thm2": (
        {"seed": 0, "beta": 1.0, "trials": 200, "num_quanta": 40, "tol": 1e-10},
        run_certify_thm2,
    ),
    "certify-thm4": (
        {"seed": 0, "beta": 1.0, "trials": 100, "num_quanta": 40},
        run_certify_thm4,
    ),
    "fig2a": (
        {
            "beta": 1.0, "delta": 0.1, "eps_min": 5.0, "center": 50.0,
            "x_min": 6.0, "x_max": 48.0, "x_step": 0.5,
        },
        run_fig2a,
    ),
    "fig2b": (
        {
            "beta": 1.0, "delta": 0.1, "eps_min": 5.0, "eps_star": 50.0,
            "x_min": 10.0, "x_max": 80.0, "x_step": 0.5, "fit_min": 10.0, "fit_max": 35.0,
        },
        run_fig2b,
    ),
    "fig4": ({"beta": 1.0}, run_fig4),
}


def run_experiment(name: str, overrides: dict[str, Any]) -> ExperimentResult:
    """Resolve defaults, reject unknown keys, and run the named experiment."""
    if name not in EXPERIMENTS:
        raise DomainError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    defaults, fn = EXPERIMENTS[name]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise DomainError(f"unknown config keys for {name}: {sorted(unknown)}")
    cfg = dict(defaults)
    for key, value in overrides.items():
        cfg[key] = _typed_config_value(name, key, value, defaults[key])
    return fn(cfg)


def _typed_config_value(name: str, key: str, value: Any, default: Any) -> Any:
    """An override converted to its default's type; an integer passes where a float is expected."""
    kind = numbers.Real if isinstance(default, float) else numbers.Integral
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DomainError(
            f"config key {key!r} of {name} takes a {type(default).__name__}, got {value!r}"
        )
    return type(default)(value)
