"""Work distributions and fluctuation measures.

Work is the battery energy jump w = eps_k' - eps_k induced by one channel
run; its distribution is the object every fluctuation measure acts on.

On the completed ladder extension of a wit operation (construction.py) the
work is (k' - k) delta with k' - k in {-1, 0, ..., N}, so for a product
input x (x) b the work distribution is N + 2 masses.  With c = 1^T r00,
S(m) = b_1 + ... + b_m and S(0) = 0, the mass at offset j is

  j = -1:          (1^T r10 x) S(N)
  0 <= j < N:      b_0 c r01^j x + S(N-1-j) c r01^j r11 x + b_{N-j} 1^T r01^j r11 x
  j = N:           b_0 1^T r01^N x

The three terms of the middle line come from column 0, from the interior
columns 1..N-1-j, and from the top-row completion of column N-j (for
j = 0 that is the r11 block of column N).  `ladder_work_distribution`
evaluates these from the vector recursions r01^j x and r01^j r11 x in
O(N d^2) time, without forming the (d(N+1))^2 matrix; at N = 1 they are
the four blocks of the wit channel.

Any other channel (one read from a file, say) takes the dense body of
`work_distribution`, whose (N+1)^2 works WorkDistribution merges with a
plain reference loop over the sorted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import LadderChannel, ThermalChannel, WitSubchannels, apply, battery_marginal
from .errors import DimensionMismatch, DomainError, PreconditionViolated
from .spectra import DiagonalState, checked_probabilities, dot

MERGE_TOL = 1e-12
# theorem4_check: absolute margin by which Var[w] may fall below gamma <w>^2.
VARIANCE_FLOOR_TOL = 1e-12


def _merge_support(values: np.ndarray, probs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """WorkDistribution's leader rule, one sorted value at a time; masses add left to right."""
    order = np.argsort(values, kind="stable")
    out_v, out_p = [], []
    for v, p in zip(values[order].tolist(), probs[order].tolist()):
        if out_v and v - out_v[-1] <= tol:
            out_p[-1] += p
        else:
            out_v.append(v)
            out_p.append(p)
    return np.array(out_v, dtype=float), np.array(out_p, dtype=float)


@dataclass(frozen=True)
class WorkDistribution:
    """Finite support of work values with matching probabilities.

    The probabilities pass the check a DiagonalState's do
    (spectra.checked_probabilities) before any merge, and every value that
    keeps probability must be finite.

    Near-equal values are merged.  The values are sorted (stably) and taken
    in order: a value at most MERGE_TOL above the first value of the current
    group, its leader, joins that group; any other value leads a new group.
    A group keeps its leader's value, and its masses are summed in sorted
    order, left to right.  Groups of zero mass are then dropped.  A support
    that already rises by more than MERGE_TOL at every step, such as a
    ladder's N + 2 works, is its own grouping and skips the sort.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.support, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise DimensionMismatch("support and probs must be matching vectors")
        if v.size == 0:
            raise DomainError("a work distribution needs at least one value")
        p = checked_probabilities(p)
        if not (np.diff(v) > MERGE_TOL).all():  # else every value is its own group, in order
            v, p = _merge_support(v, p, MERGE_TOL)
        keep = p > 0.0
        v, p = v[keep], p[keep]
        # v is sorted here, NaN last, and a NaN or infinite value merges with
        # no other: a non-finite value that keeps probability is an end.
        if not (math.isfinite(v[0]) and math.isfinite(v[-1])):
            raise DomainError("a work value with probability is not finite")
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "support", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def point_mass(cls, w: float) -> "WorkDistribution":
        return cls(support=np.array([w]), probs=np.array([1.0]))

    def prob_of(self, w: float) -> float:
        """Total mass on the support values within MERGE_TOL of w."""
        hit = np.abs(self.support - w) <= MERGE_TOL
        return float(self.probs[hit].sum())


@dataclass(frozen=True)
class CostFunction:
    """Fluctuation cost f with f(0) = 0, applied to w - <w>."""

    evaluator: Callable[[float], float]
    tag: str = ""

    def __post_init__(self):
        at_zero = float(self.evaluator(0.0))
        if abs(at_zero) > 1e-12:
            raise DomainError(f"cost function must vanish at 0, got f(0) = {at_zero}")


def _power_orbit(m: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """m^j v for j = 0..count-1 and a d x k matrix v, stacked along a new first axis.

    Works in chunks of block = floor(sqrt(count)) steps.  Two sequential
    chains of small products make the powers m^j (j < block) and the chunk
    starts v_{i+1} = m (m^(block-1) v_i); one batched matmul of the stacked
    powers, (block d x d), against every start then gives
    m^(i block + j) v = m^j v_i for all of them, already in orbit order.
    Every entry is the same length-d dot product as in a product per
    chunk, so the bits are those of the chunk-by-chunk loop.  The Python
    loops take O(sqrt(count)) steps, not count; the chains write through
    `ndarray.dot(..., out=)`, the cheapest call into the same BLAS product.
    """
    block = max(1, int(np.sqrt(count)))
    d = len(m)
    powers = np.empty((block, d, d))
    powers[0] = np.eye(d)
    for j in range(1, block):
        m.dot(powers[j - 1], out=powers[j])
    chunks = -(-count // block)
    starts = np.empty((chunks, *v.shape))
    starts[0] = v
    last, end = powers[-1], np.empty(v.shape)
    for i in range(1, chunks):
        last.dot(starts[i - 1], out=end)  # the last step of chunk i - 1
        m.dot(end, out=starts[i])
    orbit = np.matmul(powers.reshape(block * d, d), starts)
    return orbit.reshape(chunks * block, *v.shape)[:count]


def ladder_work_distribution(
    sub: WitSubchannels, num_quanta: int, sys: DiagonalState, bat: DiagonalState
) -> WorkDistribution:
    """Work distribution of the completed ladder extension, straight from the wit blocks.

    The offset masses are the sums in the module docstring, in O(N d^2)
    time and O(N d) memory; no channel is built.  work_distribution of a
    LadderChannel is this function.
    """
    if num_quanta < 1:
        raise DomainError(f"a ladder needs num_quanta >= 1, got {num_quanta}")
    n = num_quanta
    if len(sys.spectrum) != sub.dim or len(bat.spectrum) != n + 1:
        raise DimensionMismatch("state dimensions do not match the ladder extension")
    x, b = sys.probs, bat.probs

    # Row j of `krylov` holds (r01^j x, r01^j r11 x) side by side.
    krylov = _power_orbit(sub.r01, np.column_stack((x, sub.r11 @ x)), n + 1)
    c = sub.r00.sum(axis=0)
    from_vacuum = krylov[:n, :, 0] @ c
    series = krylov[:n, :, 1] @ c
    # numpy sums fewer than eight terms left to right, as the builtin sum over
    # rows does, but a reduction over the short strided axis is slow.
    top = sum(krylov[:n, :, 1].T) if sub.dim < 8 else krylov[:n, :, 1].sum(axis=1)
    above = np.concatenate(([0.0], np.cumsum(b[1:])))  # above[m] = S(m)

    masses = np.empty(n + 2)
    masses[0] = (sub.r10 @ x).sum() * above[n]
    masses[1:-1] = b[0] * from_vacuum + above[n - 1::-1] * series + b[n:0:-1] * top
    masses[-1] = b[0] * krylov[n, :, 0].sum()
    return WorkDistribution(support=sub.delta * np.arange(-1, n + 1), probs=masses)


def work_distribution(
    channel: ThermalChannel, sys: DiagonalState, bat: DiagonalState
) -> WorkDistribution:
    """p(w) = sum over (k,k') with eps_k'-eps_k = w of the transfer mass.

    A LadderChannel's distribution is ladder_work_distribution of its blocks.
    """
    if isinstance(channel, LadderChannel):
        return ladder_work_distribution(channel.sub, channel.num_quanta, sys, bat)
    if len(bat.spectrum) != channel.n_battery or len(sys.spectrum) != channel.d_in:
        raise DimensionMismatch("state dimensions do not match the channel")
    r4 = channel.blocks()
    # mass[k', k] = sum_{s', s} r(s'k'|sk) * p(s) q(k)
    mass = np.einsum("aibj,bj->ij", r4, np.outer(sys.probs, bat.probs))
    eps = channel.battery.array
    works = (eps[:, None] - eps[None, :]).ravel()
    return WorkDistribution(support=works, probs=mass.ravel())


def average_work(wd: WorkDistribution) -> float:
    return dot(wd.support, wd.probs)


def variance(wd: WorkDistribution) -> float:
    mean = average_work(wd)
    return dot(wd.probs, (wd.support - mean) ** 2)


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
    return dot(eps, out_bat) - dot(eps, bat.probs)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single inequality certification."""

    name: str
    passed: bool
    worst_slack: float
    details: dict = field(default_factory=dict)


def theorem4_check(wd: WorkDistribution, gamma: float) -> CheckReport:
    """Variance floor Var[w] >= gamma <w>^2 for protocols with <w> <= 0.

    gamma is the initial ground-level occupation of the battery.  The check
    passes when the margin is at least -VARIANCE_FLOOR_TOL.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma = {gamma} outside [0, 1]")
    mean = average_work(wd)
    if mean > 0.0:
        raise PreconditionViolated(f"variance floor needs <w> <= 0, got {mean}")
    margin = variance(wd) - gamma * mean**2
    return CheckReport(
        name="variance-floor",
        passed=margin >= -VARIANCE_FLOOR_TOL,
        worst_slack=float(margin),
        details={"average_work": mean, "variance": variance(wd), "gamma": gamma},
    )
