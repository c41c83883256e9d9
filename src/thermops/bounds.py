"""Jarzynski-type conditional averages and second-law correction terms.

For a channel obeying effective translational invariance above battery
level k_min, the conditional exponential average from level k is bounded
by Z_out (1 + e^{-beta delta_k}) with delta_k = (k - k_min + 1) delta,
and the average work obeys

    <w> <= -dF + A(bat, sys) + B(bat),

where A collects the vacuum-regime contribution and B decays
exponentially with the distance of the battery state to the threshold.
B is certified in its larger (eta_S-weighted) variant; both are reported.

A LadderChannel's conditional averages come from its wit blocks; any
other channel takes a plain reference loop, one log-sum-exp per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batteries import CheckReport, average_work, work_distribution
from .channels import LadderChannel, ThermalChannel, apply, check_eti, sys_marginal
from .errors import DomainError, ETIViolated, IndexOutOfRange, NonUniformBattery
from .spectra import (
    DiagonalState,
    EnergySpectrum,
    check_beta,
    dot,
    free_energy,
    logsumexp,
    partition_function,
)

THEOREM_TOL = 1e-10


def conditional_jarzynski_band(channel: ThermalChannel, ks) -> np.ndarray:
    """<e^{beta(w - f_s)}>_k for every battery level k in `ks`, in that order.

    A LadderChannel reads every level from its wit blocks in O(N d^2)
    (LadderChannel.conditional_band).  Any other channel takes one
    spectra.logsumexp per level over its column's terms
    log r(s'k'|sk) + beta (eps_k' - eps_k) - beta E_s in (s', k', s) order,
    with the exact cancellation p(s) e^{-beta f_s} = e^{-beta E_s}, which
    also covers zero-probability levels.
    """
    ks = np.asarray(ks, dtype=np.intp).reshape(-1)
    if ks.size and not (0 <= ks.min() and ks.max() < channel.n_battery):
        bad = ks[(ks < 0) | (ks >= channel.n_battery)][0]
        raise IndexOutOfRange(f"battery level {bad} outside 0..{channel.n_battery - 1}")
    if isinstance(channel, LadderChannel):
        return channel.conditional_band()[ks]
    r4 = channel.blocks()  # [s', k', s, k]
    eps = channel.battery.array
    beta = channel.beta
    sys_term = beta * channel.sys_in.array
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        r = r4[:, :, :, k]
        terms = np.log(r, out=np.full(r.shape, -np.inf), where=r > 0)
        terms += beta * (eps - eps[k])[:, None]
        terms -= sys_term
        out[i] = np.exp(logsumexp(terms))
    return out


def conditional_jarzynski(channel: ThermalChannel, sys: DiagonalState, k: int) -> float:
    """<e^{beta(w - f_s)}>_k, the exponential average conditioned on battery level k.

    The single-level call of conditional_jarzynski_band; the state argument
    is validated but cannot change the value.
    """
    if len(sys.spectrum) != channel.d_in:
        raise IndexOutOfRange("system state does not match the channel input")
    return float(conditional_jarzynski_band(channel, [k])[0])


def jarzynski_average(channel: ThermalChannel, sys: DiagonalState, bat: DiagonalState) -> float:
    """Unconditional <e^{beta(w - f_s)}> = sum_k p_W(k) <...>_k, summed level by level."""
    if len(sys.spectrum) != channel.d_in:
        raise IndexOutOfRange("system state does not match the channel input")
    ks = np.flatnonzero(bat.probs > 0)
    terms = bat.probs[ks] * conditional_jarzynski_band(channel, ks)
    return float(np.cumsum(terms)[-1])  # sequential, like a running sum


def _require_uniform(channel: ThermalChannel) -> float:
    delta = channel.battery.uniform_spacing()
    if delta is None:
        raise NonUniformBattery("bound needs a uniformly spaced battery")
    return delta


def _require_interior_eti(channel: ThermalChannel, k_min: int) -> None:
    n = channel.n_battery - 1
    report = check_eti(channel, k_min, row_max=n - 1, col_max=n - 1)
    if not report.holds:
        raise ETIViolated(
            f"interior-band translation symmetry violated by {report.max_violation}"
        )


def theorem1_certify(
    channel: ThermalChannel,
    sys: DiagonalState,
    k_min: int,
    band_buffer: int = 5,
    tol: float = THEOREM_TOL,
) -> CheckReport:
    """Check <e^{beta(w-f_s)}>_k <= Z_out (1 + e^{-beta delta_k}) on the band."""
    n = channel.n_battery - 1
    band = range(k_min, n - band_buffer + 1)
    if not band:
        raise DomainError(
            f"no battery level to certify: k_min = {k_min} and band_buffer = {band_buffer} "
            f"leave an empty band on a ladder with N = {n}"
        )
    delta = _require_uniform(channel)
    _require_interior_eti(channel, k_min)
    if len(sys.spectrum) != channel.d_in:
        raise IndexOutOfRange("system state does not match the channel input")
    z_out = partition_function(channel.sys_out, channel.beta)
    ks = np.arange(band.start, band.stop)
    lhs = conditional_jarzynski_band(channel, ks)
    delta_k = (ks - k_min + 1) * delta
    rhs = z_out * (1.0 + np.exp(-channel.beta * delta_k))
    slack = rhs - lhs
    rows = list(zip(ks.tolist(), lhs.tolist(), rhs.tolist(), slack.tolist()))
    worst_slack, worst_k = np.inf, None
    below = np.flatnonzero(slack < np.inf)
    if below.size:
        at = below[np.argmin(slack[below])]
        worst_slack, worst_k = slack[at], int(ks[at])
    return CheckReport(
        name="jarzynski-family-bound",
        passed=worst_slack >= -tol,
        worst_slack=float(worst_slack),
        details={"worst_k": worst_k, "rows": rows, "z_out": z_out},
    )


def battery_mean_energy(battery: EnergySpectrum, beta: float) -> float:
    """Gibbs-average battery energy <E>_beta, from a log-sum-exp of the weights.

    Unlike gibbs_state, it takes any beta * |E|: a long ladder's top levels
    only underflow to zero weight.
    """
    check_beta(beta)
    logw = -beta * battery.array
    p = np.exp(logw - logsumexp(logw))
    return dot(p / p.sum(), battery.array)


def eta_derivative(battery: EnergySpectrum, beta: float, k: int) -> float:
    """d/d beta of eta_k = Z_W e^{beta eps_k}, analytically eta_k (eps_k - <E>_beta).

    Z_W is a log-sum-exp, so a ladder of any length is accepted.
    """
    if not 0 <= k < len(battery):
        raise IndexOutOfRange(f"battery level {k} outside the spectrum")
    check_beta(beta)
    eps_k = battery.levels[k]
    eta_k = np.exp(logsumexp(-beta * battery.array)) * np.exp(beta * eps_k)
    return float(eta_k * (eps_k - battery_mean_energy(battery, beta)))


@dataclass(frozen=True)
class SecondLawReport:
    """Average-work bound <w> <= -dF + A + B with both B variants."""

    avg_work: float
    delta_F: float
    A_term: float
    B_term_main: float
    B_term_appendix: float
    slack: float  # (-dF + A + B_appendix) - <w>

    @property
    def bound(self) -> float:
        return -self.delta_F + self.A_term + self.B_term_appendix


def theorem2_bound(
    channel: ThermalChannel,
    sys: DiagonalState,
    bat: DiagonalState,
    k_min: int,
) -> SecondLawReport:
    """Evaluate the corrected second law for one (channel, system, battery) run."""
    delta = _require_uniform(channel)
    _require_interior_eti(channel, k_min)
    beta = channel.beta

    avg = average_work(work_distribution(channel, sys, bat))

    out = apply(channel, sys, bat)
    out_sys = DiagonalState(sys_marginal(out, channel.d_out, channel.n_battery), channel.sys_out)
    delta_f = free_energy(out_sys, beta) - free_energy(sys, beta)

    e_max_out = float(np.max(channel.sys_out.array))
    eta_s = partition_function(channel.sys_in, beta) * np.exp(beta * e_max_out)
    f_in = free_energy(sys, beta)

    a_term = 0.0
    for k in range(k_min):
        p = bat.probs[k]
        if p > 0:
            a_term += p * (e_max_out - f_in - eta_s * eta_derivative(channel.battery, beta, k))

    ks = np.arange(k_min, channel.n_battery)
    delta_ks = (ks - k_min + 1) * delta
    tail = dot(bat.probs[k_min:], np.exp(-beta * delta_ks))
    b_main = np.log1p(tail) / beta
    b_appendix = np.log1p(eta_s * tail) / beta

    slack = (-delta_f + a_term + b_appendix) - avg
    return SecondLawReport(
        avg_work=avg,
        delta_F=delta_f,
        A_term=a_term,
        B_term_main=float(b_main),
        B_term_appendix=float(b_appendix),
        slack=float(slack),
    )


def corollary1_correction(
    eps_star: float,
    bat: DiagonalState,
    sys_params: tuple[int, float],
    beta: float,
    delta: float,
    eps_min: float,
) -> float:
    """Simplified correction C(eps*, rho_W); the bound is <w> <= -dF + C/beta.

    C = p(eps < eps*) [c_S h + ln c_S] + c_S e^{-beta(eps* - eps_min)} with
    h = e^{-beta delta} [1 + beta delta e^{beta eps_min} (1 - e^{-beta delta})^{-2}]
    and c_S = d_S e^{beta E_max_out}.
    """
    if not eps_star > eps_min >= 0:
        raise DomainError(f"need eps_star > eps_min >= 0, got ({eps_star}, {eps_min})")
    if delta <= 0:
        raise DomainError("need a positive ladder spacing")
    d_s, e_max_out = sys_params

    eps_levels = bat.spectrum.array
    p_below = float(bat.probs[eps_levels <= eps_star * (1 + 1e-12) + 1e-300].sum())

    log_c = np.log(d_s) + beta * e_max_out
    c_s = np.exp(log_c)
    bd = beta * delta
    h_corr = np.exp(-bd) * (1.0 + bd * np.exp(beta * eps_min) / np.expm1(-bd) ** 2)
    fixed_term = np.exp(log_c - beta * (eps_star - eps_min))
    return float(p_below * (c_s * h_corr + log_c) + fixed_term)


def gaussian_battery_profile(
    num_quanta: int, delta: float, center: float, beta: float
) -> DiagonalState:
    """Battery state with p(eps) proportional to e^{-beta^2 (eps - center)^2 / 2}."""
    spectrum = EnergySpectrum.oscillator(num_quanta, delta)
    z = beta * (spectrum.array - center)
    logp = -0.5 * z**2
    p = np.exp(logp - logsumexp(logp))
    p /= p.sum()
    return DiagonalState(probs=p, spectrum=spectrum)
