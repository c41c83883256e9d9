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
row, the mirror image of the vacuum.  The map is fully described by O(N)
distinct d x d blocks: r00 r01^i, r01^N, r00 r01^i r11, r01^j r11, r10 and
r11.  `extend_to_oscillator` returns a `LadderChannel`, which keeps just
the four wit blocks and N.  Its validation, block extraction and dense
matrix build these blocks on first read; its application, work statistics
and conditional averages read only the wit blocks, and its dense matrix is
assembled only when read.  Each interior band is
one stored block, so interior invariance holds by construction and
`check_eti` does not re-scan it; the dense scan serves every other window
and every other channel.

The ladder's work distribution comes straight from the blocks
(`batteries.ladder_work_distribution`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
# Largest automatic battery size `thermops construct` accepts: it writes the
# ladder's dense matrix, 128 MB at d = 2.  A LadderChannel assembles that
# matrix only when it is read, and its O(N) block stack only when `validate`,
# `extract_subchannels` or the matrix reads it; every other ladder kernel
# works from the wit blocks and has no size limit.
MAX_BATTERY_SIZE = 2000
# Spectral radius of r01 at or above 1 - SERIES_MARGIN counts as divergent.
SERIES_MARGIN = 1e-10


def extend_to_oscillator(sub: WitSubchannels, num_quanta: int) -> LadderChannel:
    """Build the completed (N+1)-level extension of a wit operation."""
    if num_quanta < 2:
        raise DomainError(
            f"extension needs at least a 3-level battery (num_quanta >= 2), got {num_quanta}"
        )
    return LadderChannel(sub, num_quanta)


def truncation_tail(sub: WitSubchannels, num_quanta: int) -> float:
    """Operator 1-norm of r01^N, the mass the completion folds into the top level."""
    return _one_norm(np.linalg.matrix_power(sub.r01, num_quanta))


def _one_norm(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max())


def _power_chain(a: np.ndarray) -> Callable[[int], np.ndarray]:
    """n -> a^n with the bits of np.linalg.matrix_power(a, n), each a^(2^j) squared once.

    matrix_power takes n = 0 to 3 directly (a^3 as (a a) a) and multiplies
    every larger power out of the squarings a^(2^j), from the lowest set
    bit of n up.  The returned function forms each power by the same
    products in the same order, and keeps the squarings for the next call.
    The products go through `ndarray.dot`, the cheapest call into the same
    BLAS product as matmul.
    """
    squares = [a]

    def power(n: int) -> np.ndarray:
        if n == 0:
            return np.eye(len(a), dtype=a.dtype)
        while len(squares) < n.bit_length():
            squares.append(squares[-1].dot(squares[-1]))
        if n == 3:
            return squares[1].dot(a)
        result = None
        for j in range(n.bit_length()):
            if n >> j & 1:
                result = squares[j] if result is None else result.dot(squares[j])
        return result

    return power


def auto_battery_size(sub: WitSubchannels, tol: float = TAIL_TOL) -> int:
    """Smallest N >= 2 with truncation_tail(sub, N) <= tol.

    The columns of a valid r01 sum to at most 1, so the tail ||r01^N||_1
    does not grow with N, and it is at least rho^N for the spectral radius
    rho of r01, which has to lie below 1 (checked first).  The answer is
    therefore at least ceil(ln tol / ln rho).  The search probes that N,
    then steps down once to confirm it; if the guess is short it gallops
    up (steps 1, 2, 4, ...) and bisects, and if it overshoots it gallops
    down the same way.  Two probes settle most operations.  Each tail is
    r01^N formed by the products np.linalg.matrix_power would take, so it
    has the bits of truncation_tail and the chosen N is the one a
    doubling search would find; the squarings r01^(2^j) are made once
    per call and shared by every probe, so a probe costs only its
    popcount(N) - 1 products of d x d blocks.
    """
    return _battery_size_and_tail(sub, tol)[0]


def _battery_size_and_tail(sub: WitSubchannels, tol: float = TAIL_TOL) -> tuple[int, float]:
    """auto_battery_size and truncation_tail at that size, read from the search's own probes."""
    if not tol > 0.0:
        raise DomainError(f"tail tolerance must be positive, got {tol}")
    radius = _require_convergent(sub.r01)
    power = _power_chain(sub.r01)
    tails: dict[int, float] = {}

    def small(n: int) -> bool:  # n = 1 stands for "below the least size"
        if n < 2:
            return False
        tails[n] = _one_norm(power(n))
        return tails[n] <= tol

    guess = 2
    if radius > 0.0 and tol < 1.0:  # else the bound says nothing above N = 2
        guess = max(guess, math.ceil(math.log(tol) / math.log(radius)))
    # The answer lies in (lo, hi]: the tail at lo is above tol, at hi within it.
    step = 1
    if small(guess):
        hi = guess
        while small(lo := max(1, hi - step)):
            hi, step = lo, 2 * step
    else:
        lo = guess
        while not small(hi := lo + step):
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if small(mid):
            hi = mid
        else:
            lo = mid
    return hi, tails[hi]


def _require_convergent(r01: np.ndarray) -> float:
    """Spectral radius of r01; raise unless it lies below 1 - SERIES_MARGIN, so sum_n r01^n converges."""
    radius = float(np.max(np.abs(np.linalg.eigvals(r01))))
    if radius >= 1.0 - SERIES_MARGIN:
        raise NonConvergentSeries(f"spectral radius of r01 is {radius}, too close to 1")
    return radius


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
    On a LadderChannel every audit reads the blocks: validate's block
    formulas, the unscanned interior window, and drop blocks that are all
    the stored r10.
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
        # Every k -> k-1 block of a ladder is the one stored r10.
        blocks_ok, worst, first_bad = True, 0.0, None
    else:
        if sub is not None:
            if sub.dim != channel.d_in:
                raise DimensionMismatch(
                    f"subchannels of dimension {sub.dim} for a channel with d_in = {channel.d_in}"
                )
            for name, k, k_prime in (("r00", 0, 0), ("r10", 1, 0), ("r11", n, n)):
                if not np.array_equal(getattr(sub, name), extract_subchannels(channel, k, k_prime)):
                    raise DomainError(
                        f"sub.{name} differs from the channel's ({k} -> {k_prime}) block"
                    )
        ref = extract_subchannels(channel, 1, 0)
        ks = np.arange(1, n + 1)
        drops = channel.blocks()[:, ks - 1, :, ks]  # the k -> k-1 block of every level
        bad = np.flatnonzero(~(drops == ref).all(axis=(1, 2)))
        deviation = np.abs(drops[bad] - ref).max(axis=(1, 2))
        blocks_ok = bad.size == 0
        worst = float(np.fmax.reduce(deviation, initial=0.0))  # fmax skips NaN, as max() did
        first_bad = int(ks[bad[0]]) if bad.size else None
    report = validate(channel)
    eti = check_eti(channel, k_min=1, row_max=n - 1, col_max=n - 1)
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
