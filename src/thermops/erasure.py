"""Landauer erasure case studies on the ideal weight and the oscillator battery.

The task: reset a maximally mixed qubit (H_S = 0) to |0> up to a failure
probability.  On the weight the fluctuation-optimal process pays
w0 = -[ln 2 + ln(1-eps)]/beta on success and w1 = -[ln 2 + ln eps]/beta on
failure; on the oscillator the wit erasure primitive extends to a ladder
battery and the vacuum occupation gamma sets both the total error
eps_tot = eps(1-gamma) + gamma and a variance floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batteries import (
    CostFunction,
    WorkDistribution,
    average_work,
    general_cost,
    ladder_work_distribution,
    variance,
)
from .channels import WitSubchannels, ladder_spectrum
from .construction import _battery_size_and_tail, truncation_tail
from .errors import DomainError, PoleError
from .spectra import DiagonalState, EnergySpectrum, binary_entropy

GIBBS_IDENTITY_TOL = 1e-12


def weight_process(eps: float, beta: float = 1.0) -> tuple[WorkDistribution, float, float]:
    """Fluctuation-optimal weight erasure: shifts (w0, w1) with p = (1-eps, eps)."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps = {eps} outside (0, 1)")
    w0 = -(np.log(2.0) + np.log1p(-eps)) / beta
    w1 = -(np.log(2.0) + np.log(eps)) / beta
    resid0 = abs(np.exp(beta * w0) - 1.0 / (2.0 * (1.0 - eps)))
    resid1 = abs(np.exp(beta * w1) - 1.0 / (2.0 * eps))
    if max(resid0, resid1) > GIBBS_IDENTITY_TOL:
        raise DomainError(f"Gibbs identities violated by {max(resid0, resid1)}")
    wd = WorkDistribution(support=np.array([w0, w1]), probs=np.array([1.0 - eps, eps]))
    return wd, float(w0), float(w1)


def weight_average_work(eps_tot: float, beta: float = 1.0) -> float:
    """<w>_1 = [-ln 2 + h(eps_tot)]/beta."""
    return (-np.log(2.0) + binary_entropy(eps_tot)) / beta


def weight_variance(eps_tot: float, beta: float = 1.0) -> float:
    """Var_1 in the same process, via the centered shifts."""
    h = binary_entropy(eps_tot)
    lo = 0.0 if eps_tot == 0.0 else eps_tot * (-np.log(eps_tot) - h) ** 2
    hi = 0.0 if eps_tot == 1.0 else (1.0 - eps_tot) * (-np.log1p(-eps_tot) - h) ** 2
    return (lo + hi) / beta**2


def weight_error_bound(c: float, beta: float = 1.0) -> float:
    """Smallest achievable eps when |w - <w>| <= c: eps >= e^{-beta c}/2."""
    if c < 0:
        raise DomainError("fluctuation budget c must be >= 0")
    return 0.5 * np.exp(-beta * c)


def lambda_process(eps: float, lam: float, beta: float = 1.0) -> tuple[WorkDistribution, float]:
    """Weight process with a rare large payout: p(w0) = 1 - lam*eps, p(w1) = lam*eps.

    The rare shift solves the Gibbs pair condition
    (1-lam) e^{beta w0} + lam e^{beta w1} = 1/(2 eps), i.e.
    w1 = ln[1/(2 lam eps) - (1-lam)/(2 lam (1-eps))]/beta; as lam -> 0 the
    variance collapses while the average approaches w0.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps = {eps} outside (0, 1/2)")
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"lambda = {lam} outside (0, 1]")
    arg = 1.0 / (2.0 * lam * eps) - (1.0 - lam) / (2.0 * lam * (1.0 - eps))
    if arg <= 0.0:
        raise DomainError(f"shift argument {arg} not positive")
    w0 = -(np.log(2.0) + np.log1p(-eps)) / beta
    w1 = np.log(arg) / beta
    resid0 = abs(np.exp(beta * w0) - 1.0 / (2.0 * (1.0 - eps)))
    resid1 = abs((1.0 - lam) * np.exp(beta * w0) + lam * np.exp(beta * w1) - 1.0 / (2.0 * eps))
    if max(resid0, resid1) > GIBBS_IDENTITY_TOL:
        raise DomainError(f"Gibbs identities violated by {max(resid0, resid1)}")
    wd = WorkDistribution(support=np.array([w0, w1]), probs=np.array([1.0 - lam * eps, lam * eps]))
    return wd, float(w1)


def oscillator_erasure_subchannels(eps: float, beta: float = 1.0) -> WitSubchannels:
    """Wit blocks of the erasure primitive at gap delta = ln[2(1-eps)]/beta."""
    if not 0.0 <= eps < 0.5:
        raise DomainError(f"eps = {eps} outside [0, 1/2); the blocks degenerate at 1/2")
    a = (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps))
    return WitSubchannels(
        r00=np.array([[0.0, 0.0], [a, a]]),
        r01=np.eye(2) / (2.0 * (1.0 - eps)),
        r10=np.array([[1.0 - eps, 1.0 - eps], [eps, eps]]),
        r11=np.zeros((2, 2)),
        delta=(np.log(2.0) + np.log1p(-eps)) / beta,
        beta=beta,
        system=EnergySpectrum.trivial(2, "qubit"),
    )


def oscillator_average_work(eps: float, gamma: float, beta: float = 1.0) -> float:
    """Closed form <w>_osc = -delta (1 - 2 gamma (1-eps)/(1-2 eps))."""
    _check_osc_params(eps, gamma)
    delta = (np.log(2.0) + np.log1p(-eps)) / beta
    return -delta * (1.0 - 2.0 * gamma * (1.0 - eps) / (1.0 - 2.0 * eps))


def oscillator_variance(eps: float, gamma: float, beta: float = 1.0) -> float:
    """Closed form Var_osc = gamma delta^2 2(1-eps)(3 - 2 eps - 2 gamma (1-eps))/(1-2 eps)^2."""
    _check_osc_params(eps, gamma)
    delta = (np.log(2.0) + np.log1p(-eps)) / beta
    num = 2.0 * (1.0 - eps) * (3.0 - 2.0 * eps - 2.0 * gamma * (1.0 - eps))
    return gamma * delta**2 * num / (1.0 - 2.0 * eps) ** 2


def _check_osc_params(eps: float, gamma: float) -> None:
    if not 0.0 <= eps < 0.5:
        raise DomainError(f"eps = {eps} outside [0, 1/2)")
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma = {gamma} outside [0, 1]")


@dataclass(frozen=True)
class StatsReport:
    """Closed forms vs direct ladder simulation for one (eps, gamma) cell."""

    eps: float
    gamma: float
    eps_tot: float
    num_quanta: int
    tail: float
    avg_closed: float
    var_closed: float
    avg_sim: float
    var_sim: float

    # Agreement metric: relative error with an absolute fallback of one k_BT
    # (the natural work scale), i.e. standard allclose semantics.  Needed for
    # cells whose exact value is 0, where a pure ratio is ill-defined.
    @property
    def avg_rel_err(self) -> float:
        return abs(self.avg_closed - self.avg_sim) / max(abs(self.avg_closed), abs(self.avg_sim), 1.0)

    @property
    def var_rel_err(self) -> float:
        return abs(self.var_closed - self.var_sim) / max(abs(self.var_closed), abs(self.var_sim), 1.0)


def erasure_battery_state(gamma: float, battery: EnergySpectrum) -> DiagonalState:
    """(1-gamma)|eps_1> + gamma|eps_0>, the canonical vacuum-occupied input."""
    p = np.zeros(len(battery))
    p[0] = gamma
    p[1] = 1.0 - gamma
    return DiagonalState(probs=p, spectrum=battery)


def _erasure_ladder_work(
    eps: float, gamma: float, num_quanta: int | None, beta: float
) -> tuple[WitSubchannels, int, float, WorkDistribution]:
    """Erasure blocks, ladder size (automatic if None), its truncation tail, and its work distribution.

    An automatic size comes with its tail from the size search's last
    probe.  The ladder is never built: the work distribution comes from the
    wit blocks in O(N), so the automatic size has no cap.
    """
    sub = oscillator_erasure_subchannels(eps, beta)
    if num_quanta is None:
        num_quanta, tail = _battery_size_and_tail(sub)
    elif num_quanta < 2:
        raise DomainError(f"the erasure ladder needs num_quanta >= 2, got {num_quanta}")
    else:
        tail = truncation_tail(sub, num_quanta)
    sys = DiagonalState(np.full(2, 0.5), sub.system)
    bat = erasure_battery_state(gamma, ladder_spectrum(num_quanta, sub.delta))
    return sub, num_quanta, tail, ladder_work_distribution(sub, num_quanta, sys, bat)


def oscillator_erasure_stats(
    eps: float, gamma: float, num_quanta: int | None = None, beta: float = 1.0
) -> StatsReport:
    """Simulate the extended erasure channel and compare with the closed forms."""
    sub, num_quanta, tail, wd = _erasure_ladder_work(eps, gamma, num_quanta, beta)
    return StatsReport(
        eps=eps,
        gamma=gamma,
        eps_tot=eps * (1.0 - gamma) + gamma,
        num_quanta=num_quanta,
        tail=tail,
        avg_closed=oscillator_average_work(eps, gamma, beta),
        var_closed=oscillator_variance(eps, gamma, beta),
        avg_sim=average_work(wd),
        var_sim=variance(wd),
    )


def exp_cost_weight_bound(c: float) -> float:
    """Error floor under the exponential fluctuation budget: max(0, 1/2 - c/(2(1-c)))."""
    if c < 0:
        raise DomainError("budget c must be >= 0")
    if c >= 0.5:
        return 0.0
    return 0.5 - c / (2.0 * (1.0 - c))


def exp_cost_oscillator_closed_form(eps: float, gamma: float, beta: float = 1.0) -> float:
    """Closed-form exponential cost; has a pole at e^{beta delta} = 2 (eps = 0)."""
    _check_osc_params(eps, gamma)
    bd = np.log(2.0) + np.log1p(-eps)  # beta * delta
    if np.exp(bd) >= 2.0:
        raise PoleError("closed form has a pole at eps = 0 where e^{beta delta} = 2")
    return float(
        (np.exp(2.0 * bd * gamma) - 1.0)
        - 0.5 * gamma * np.exp(-2.0 * bd * gamma) * (1.0 - np.exp(bd) / (2.0 - np.exp(bd)))
    )


@dataclass(frozen=True)
class ExpCostReport:
    """Direct exponential cost on the simulated ladder distribution.

    The exponentially weighted tail has per-term ratio
    e^{beta delta} rho(R01) = 1 for these subchannels, so the direct sum
    grows with the ladder size whenever gamma > 0; the value at the chosen
    size and the tail ratio are both reported.  The closed form is carried
    for comparison only.
    """

    eps: float
    gamma: float
    num_quanta: int
    direct: float
    tail_ratio: float
    closed_form: float | None
    discrepancy: float | None


def exp_cost_oscillator(
    eps: float, gamma: float, beta: float = 1.0, num_quanta: int | None = None
) -> ExpCostReport:
    """Direct F[p(w)] with f(x) = e^{|x|} - 1 on the extended erasure channel."""
    sub, num_quanta, _, wd = _erasure_ladder_work(eps, gamma, num_quanta, beta)
    cost = CostFunction(evaluator=lambda x: np.expm1(abs(x)), tag="exp")
    direct = general_cost(wd, cost)
    tail_ratio = float(np.exp(beta * sub.delta) / (2.0 * (1.0 - eps)))
    try:
        closed = exp_cost_oscillator_closed_form(eps, gamma, beta)
        discrepancy = abs(direct - closed)
    except PoleError:
        closed, discrepancy = None, None
    return ExpCostReport(
        eps=eps,
        gamma=gamma,
        num_quanta=num_quanta,
        direct=float(direct),
        tail_ratio=tail_ratio,
        closed_form=closed,
        discrepancy=discrepancy,
    )
