"""Extension of wit thermal operations to finite harmonic-oscillator batteries.

Any valid two-level-battery operation, given by subchannel blocks
(r00, r01, r10, r11), extends to an (N+1)-level ladder battery:

  column k = 0:      r00 r01^i          at level i < N,   r01^N at level N
  column 0 < k < N:  r10 at k-1,  r00 r01^i r11 at k+i,   r01^{N-k} r11 at N
  column k = N:      r10 at N-1,  r11 at N

At N = 1 this is the wit channel itself (`WitSubchannels.as_channel`).  A
`WitSubchannels` is checked when it is made, so the functions here take
its validity as given and do not check it again.

The top-level completion makes the finite map exactly trace- and
Gibbs-preserving; translation symmetry then holds on the interior band
above the vacuum (threshold level 1) but necessarily breaks at the top
row, the mirror image of the vacuum.  `extend_to_oscillator` returns a
`LadderChannel`, which is built only from the four blocks and N and fills
each interior band from one shared block array, so that interior
invariance holds by construction and `check_eti` does not re-scan it; the
dense scan serves every other window and every other channel.

Work on the ladder is (k' - k) delta with k' - k in {-1, 0, ..., N}, so for
a product input x (x) b the work distribution is N + 2 masses.  With
c = 1^T r00, S(m) = b_1 + ... + b_m and S(0) = 0, the mass at offset j is

  j = -1:          (1^T r10 x) S(N)
  0 <= j < N:      b_0 c r01^j x + S(N-1-j) c r01^j r11 x + b_{N-j} 1^T r01^j r11 x
  j = N:           b_0 1^T r01^N x

The three terms of the middle line come from column 0, from the interior
columns 1..N-1-j, and from the top-row completion of column N-j (for
j = 0 that is the r11 block of column N).  `ladder_work_distribution`
evaluates these from the vector recursions r01^j x and r01^j r11 x in
O(N d^2) time, without forming the (d(N+1))^2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batteries import WorkDistribution
from .channels import (
    ETIReport,
    LadderChannel,
    ThermalChannel,
    ValidationReport,
    WitSubchannels,
    check_eti,
    extract_subchannels,
    validate,
)
from .errors import DimensionMismatch, DomainError, Infeasible, NonConvergentSeries
from .feasibility import formation_feasible_at, formation_gap_from_equilibrium
from .spectra import DiagonalState

TAIL_TOL = 1e-12
# Largest automatic battery size `thermops construct` writes as a dense
# channel (a 128 MB matrix at d = 2); the matrix-free paths have no limit.
MAX_BATTERY_SIZE = 2000
# Spectral radius of r01 at or above 1 - SERIES_MARGIN counts as divergent.
SERIES_MARGIN = 1e-10


def _require_ladder(num_quanta: int) -> None:
    if num_quanta < 2:
        raise DomainError(
            f"extension needs at least a 3-level battery (num_quanta >= 2), got {num_quanta}"
        )


def extend_to_oscillator(sub: WitSubchannels, num_quanta: int) -> LadderChannel:
    """Build the completed (N+1)-level extension of a wit operation."""
    _require_ladder(num_quanta)
    return LadderChannel(sub, num_quanta)


def _power_orbit(m: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """m^j v for j = 0..count-1, stacked along a new first axis.

    Works in blocks of about sqrt(count) steps with one batched product per
    block, so the Python loops take O(sqrt(count)) steps, not count.
    """
    block = max(1, int(np.sqrt(count)))
    powers = np.empty((block, *m.shape))
    powers[0] = np.eye(len(m))
    for j in range(1, block):
        powers[j] = m @ powers[j - 1]
    out = np.empty((count, *v.shape))
    for i in range(0, count, block):
        chunk = powers[: count - i] @ v
        out[i : i + len(chunk)] = chunk
        v = m @ chunk[-1]
    return out


def ladder_work_distribution(
    sub: WitSubchannels, num_quanta: int, sys: DiagonalState, bat: DiagonalState
) -> WorkDistribution:
    """Work distribution of the completed ladder extension, straight from the wit blocks.

    Equals work_distribution(extend_to_oscillator(sub, num_quanta), sys, bat)
    up to the order of summation, in O(N d^2) time and O(N d) memory; the
    offset masses are the sums in the module docstring.
    """
    _require_ladder(num_quanta)
    n = num_quanta
    if len(sys.spectrum) != sub.dim or len(bat.spectrum) != n + 1:
        raise DimensionMismatch("state dimensions do not match the ladder extension")
    x, b = sys.probs, bat.probs

    # Row j of `krylov` holds (r01^j x, r01^j r11 x) side by side.
    krylov = _power_orbit(sub.r01, np.column_stack((x, sub.r11 @ x)), n + 1)
    c = sub.r00.sum(axis=0)
    from_vacuum = krylov[:n, :, 0] @ c
    series = krylov[:n, :, 1] @ c
    top = krylov[:n, :, 1].sum(axis=1)
    above = np.concatenate(([0.0], np.cumsum(b[1:])))  # above[m] = S(m)

    masses = np.empty(n + 2)
    masses[0] = (sub.r10 @ x).sum() * above[n]
    masses[1:-1] = b[0] * from_vacuum + above[n - 1::-1] * series + b[n:0:-1] * top
    masses[-1] = b[0] * krylov[n, :, 0].sum()
    return WorkDistribution(support=sub.delta * np.arange(-1, n + 1), probs=masses)


def truncation_tail(sub: WitSubchannels, num_quanta: int) -> float:
    """Operator 1-norm of r01^N, the mass the completion folds into the top level."""
    p = np.linalg.matrix_power(sub.r01, num_quanta)
    return float(np.abs(p).sum(axis=0).max())


def auto_battery_size(sub: WitSubchannels, tol: float = TAIL_TOL) -> int:
    """Smallest N >= 2 with truncation_tail(sub, N) <= tol.

    The columns of a valid r01 sum to at most 1, so the tail ||r01^N||_1
    does not grow with N: the search doubles N until the tail is small
    enough and then bisects, O(log^2 N) products of d x d blocks.  The
    doubling ends only if r01 has spectral radius below 1, which is
    checked first.
    """
    if not tol > 0.0:
        raise DomainError(f"tail tolerance must be positive, got {tol}")
    _require_convergent(sub.r01)
    lo, hi = 1, 2  # the answer lies in (lo, hi] once the tail at hi is small
    while truncation_tail(sub, hi) > tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncation_tail(sub, mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def _require_convergent(r01: np.ndarray) -> None:
    """Raise unless sum_n r01^n converges with margin: spectral radius below 1 - SERIES_MARGIN."""
    radius = float(np.max(np.abs(np.linalg.eigvals(r01))))
    if radius >= 1.0 - SERIES_MARGIN:
        raise NonConvergentSeries(f"spectral radius of r01 is {radius}, too close to 1")


def closed_form_average_work(sub: WitSubchannels, x: DiagonalState) -> float:
    """<w> = delta (1^T (I - r01)^{-1} r11 x - 1) for interior battery inputs."""
    _require_convergent(sub.r01)
    d = sub.dim
    series = np.linalg.solve(np.eye(d) - sub.r01, sub.r11 @ x.probs)
    return float(sub.delta * (series.sum() - 1.0))


def _same_operation(a: WitSubchannels, b: WitSubchannels) -> bool:
    """Equal blocks, gap, beta and system levels (== on the dataclass is ambiguous for arrays)."""
    return a is b or (
        (a.delta, a.beta, a.system) == (b.delta, b.beta, b.system)
        and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in ("r00", "r01", "r10", "r11"))
    )


@dataclass(frozen=True)
class ExtensionReport:
    """Bundled audits of an extended channel."""

    validation: ValidationReport
    eti: ETIReport
    blocks_ok: bool
    block_max_deviation: float
    block_first_mismatch: int | None
    tail: float | None

    @property
    def ok(self) -> bool:
        return self.validation.ok and self.eti.holds and self.blocks_ok


def verify_extension(channel: ThermalChannel, sub: WitSubchannels | None = None) -> ExtensionReport:
    """Residuals, interior-band translation audit, and block-structure audit.

    The interior band excludes the top battery row, where the completed
    map mirrors the vacuum and translation symmetry necessarily breaks.
    The truncation tail comes from `sub`; a LadderChannel supplies its own
    blocks, and a `sub` passed with it must equal them.  On any other
    channel, `sub.r00`, `sub.r10` and `sub.r11` must equal the channel's
    (0 -> 0), (1 -> 0) and (N -> N) blocks bit for bit (channel files keep
    these bits exactly).
    """
    n = channel.n_battery - 1
    if isinstance(channel, LadderChannel):
        if sub is not None and not _same_operation(sub, channel.sub):
            raise DomainError("sub differs from the wit operation the ladder channel was built from")
        sub = channel.sub
    elif sub is not None:
        if sub.dim != channel.d_in:
            raise DimensionMismatch(
                f"subchannels of dimension {sub.dim} for a channel with d_in = {channel.d_in}"
            )
        for name, k, k_prime in (("r00", 0, 0), ("r10", 1, 0), ("r11", n, n)):
            if not np.array_equal(getattr(sub, name), extract_subchannels(channel, k, k_prime)):
                raise DomainError(
                    f"sub.{name} differs from the channel's ({k} -> {k_prime}) block"
                )
    report = validate(channel)
    eti = check_eti(channel, k_min=1, row_max=n - 1, col_max=n - 1)

    ref = extract_subchannels(channel, 1, 0)
    ks = np.arange(1, n + 1)
    drops = channel.blocks()[:, ks - 1, :, ks]  # the k -> k-1 block of every level
    bad = np.flatnonzero(~(drops == ref).all(axis=(1, 2)))
    deviation = np.abs(drops[bad] - ref).max(axis=(1, 2))
    blocks_ok = bad.size == 0
    worst = float(np.fmax.reduce(deviation, initial=0.0))  # fmax skips NaN, as max() did
    first_bad = int(ks[bad[0]]) if bad.size else None
    tail = truncation_tail(sub, n) if sub is not None else None
    return ExtensionReport(
        validation=report,
        eti=eti,
        blocks_ok=blocks_ok,
        block_max_deviation=worst,
        block_first_mismatch=first_bad,
        tail=tail,
    )


def formation_subchannels(sigma: DiagonalState, beta: float, delta: float) -> WitSubchannels:
    """Wit operation sending every system state to sigma while the battery drops.

    Exists exactly when beta*delta >= D_max(sigma||tau): r10 is the constant
    map onto sigma, r11 = 0, r01 = e^{-beta delta} I, and r00 is fixed by the
    Gibbs pair conditions.
    """
    from .spectra import gibbs_weights

    g = gibbs_weights(sigma.spectrum, beta)
    z = g.sum()
    e = float(np.exp(-beta * delta))
    v = g - e * z * sigma.probs
    if np.min(v) < -1e-12:
        raise Infeasible(
            f"constant formation map needs beta*delta >= D_max, residual {np.min(v)}"
        )
    v = np.clip(v, 0.0, None)
    d = len(g)
    return WitSubchannels(
        r00=np.outer(v, np.ones(d)) / z,
        r01=e * np.eye(d),
        r10=np.outer(sigma.probs, np.ones(d)),
        r11=np.zeros((d, d)),
        delta=delta,
        beta=beta,
        system=sigma.spectrum,
    )


def theorem3_deterministic_work(
    rho: DiagonalState, sigma: DiagonalState, beta: float, num_quanta: int
) -> tuple[ThermalChannel, float]:
    """Ladder-battery channel performing rho (x) |k> -> sigma (x) |k-1> exactly.

    Returns the channel and the gap delta = D_max(sigma||tau)/beta it runs
    at; the induced work distribution from any interior battery level is the
    point mass at -delta.
    """
    delta = formation_gap_from_equilibrium(sigma, beta)
    if not formation_feasible_at(rho, sigma, beta, delta):
        raise Infeasible("no wit operation realizes the requested transition")
    sub = formation_subchannels(sigma, beta, delta)
    channel = extend_to_oscillator(sub, num_quanta)
    return channel, delta
