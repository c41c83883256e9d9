"""Work distributions and fluctuation measures.

Work is the battery energy jump w = eps_k' - eps_k induced by one channel
run; its distribution is the object every fluctuation measure acts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import ThermalChannel, apply, battery_marginal
from .errors import DimensionMismatch, DomainError, PreconditionViolated
from .spectra import DiagonalState

MERGE_TOL = 1e-12


def _merge_support(values: np.ndarray, probs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    out_v: list[float] = []
    out_p: list[float] = []
    for v, p in zip(values, probs):
        if out_v and abs(v - out_v[-1]) <= tol:
            out_p[-1] += p
        else:
            out_v.append(float(v))
            out_p.append(float(p))
    return np.asarray(out_v), np.asarray(out_p)


@dataclass(frozen=True)
class WorkDistribution:
    """Finite support of work values with matching probabilities."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.support, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise DimensionMismatch("support and probs must be matching vectors")
        if np.min(p) < -1e-15:
            raise DomainError(f"negative work probability {np.min(p)}")
        v, p = _merge_support(v, np.clip(p, 0.0, None), MERGE_TOL)
        keep = p > 0.0
        v, p = v[keep], p[keep]
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"work probabilities sum to {total}")
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "support", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def point_mass(cls, w: float) -> "WorkDistribution":
        return cls(support=np.array([w]), probs=np.array([1.0]))

    def prob_of(self, w: float, tol: float = MERGE_TOL) -> float:
        hit = np.abs(self.support - w) <= tol
        return float(self.probs[hit].sum())

    def to_csv_text(self) -> str:
        lines = ["w,p"]
        lines += [f"{w:.17g},{p:.17g}" for w, p in zip(self.support, self.probs)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CostFunction:
    """Fluctuation cost f with f(0) = 0, applied to w - <w>."""

    evaluator: Callable[[float], float]
    tag: str = ""

    def __post_init__(self):
        at_zero = float(self.evaluator(0.0))
        if abs(at_zero) > 1e-12:
            raise DomainError(f"cost function must vanish at 0, got f(0) = {at_zero}")


def work_distribution(
    channel: ThermalChannel, sys: DiagonalState, bat: DiagonalState
) -> WorkDistribution:
    """p(w) = sum over (k,k') with eps_k'-eps_k = w of the transfer mass."""
    if len(bat.spectrum) != channel.n_battery or len(sys.spectrum) != channel.d_in:
        raise DimensionMismatch("state dimensions do not match the channel")
    r4 = channel.blocks()
    # mass[k', k] = sum_{s', s} r(s'k'|sk) * p(s) q(k)
    mass = np.einsum("aibj,bj->ij", r4, np.outer(sys.probs, bat.probs))
    eps = channel.battery.array
    works = (eps[:, None] - eps[None, :]).ravel()
    return WorkDistribution(support=works, probs=mass.ravel())


def average_work(wd: WorkDistribution) -> float:
    return float(wd.support @ wd.probs)


def variance(wd: WorkDistribution) -> float:
    mean = average_work(wd)
    return float(wd.probs @ (wd.support - mean) ** 2)


def f1_measure(wd: WorkDistribution) -> float:
    """Largest distance of a supported work value from the average."""
    mean = average_work(wd)
    return float(np.max(np.abs(wd.support - mean)))


def general_cost(wd: WorkDistribution, cost: CostFunction) -> float:
    """Sum of p(w) f(w - <w>)."""
    mean = average_work(wd)
    return float(sum(p * cost.evaluator(w - mean) for w, p in zip(wd.support, wd.probs)))


def battery_energy_change(
    channel: ThermalChannel, sys: DiagonalState, bat: DiagonalState
) -> float:
    """<w> via battery marginals of apply(); cross-check for average_work."""
    out = apply(channel, sys, bat)
    out_bat = battery_marginal(out, channel.d_out, channel.n_battery)
    eps = channel.battery.array
    return float(eps @ out_bat - eps @ bat.probs)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single inequality certification."""

    name: str
    passed: bool
    worst_slack: float
    details: dict = field(default_factory=dict)


def theorem4_check(wd: WorkDistribution, gamma: float, tol: float = 1e-12) -> CheckReport:
    """Variance floor Var[w] >= gamma <w>^2 for protocols with <w> <= 0.

    gamma is the initial ground-level occupation of the battery.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma = {gamma} outside [0, 1]")
    mean = average_work(wd)
    if mean > 0.0:
        raise PreconditionViolated(f"variance floor needs <w> <= 0, got {mean}")
    margin = variance(wd) - gamma * mean**2
    return CheckReport(
        name="variance-floor",
        passed=margin >= -tol,
        worst_slack=float(margin),
        details={"average_work": mean, "variance": variance(wd), "gamma": gamma},
    )
