"""Thermal channels as Gibbs-stochastic transition matrices.

A channel acts on the joint (system, battery) level space.  The dense matrix
`r(s'k'|sk)` is column-indexed by input pairs and row-indexed by output
pairs, flattened system-major: index(s, k) = s * n_battery + k.  Validity
means column sums 1 (trace preservation) and R g_in = g_out for the joint
Gibbs weight vectors (fixed-point condition), which is the channel-level
form of Gibbs-stochasticity.

A wit operation (`WitSubchannels`) is valid by construction, and its
two-level channel is the N = 1 `LadderChannel`.  A `LadderChannel` is its
wit blocks and N.  The O(N) distinct blocks of the completed ladder,
`block_stack`, are built on first read, by `validate`, `extract_subchannels`
or the dense `matrix`; `apply` and the work and bound kernels elsewhere
read only the wit blocks.  Each of these kernels takes one branch at its
top to the ladder body, while its dense body serves every other channel,
such as one read from a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    InvalidSubchannels,
    NonUniformBattery,
    SpectrumMismatch,
)
from .spectra import (
    DiagonalState,
    EnergySpectrum,
    gibbs_weights,
    joint_spectrum,
)

STOCHASTIC_TOL = 1e-12
GIBBS_TOL = 1e-10
ETI_TOL = 1e-14


@dataclass(frozen=True)
class ThermalChannel:
    """Dense transition matrix over joint (system, battery) indices."""

    matrix: np.ndarray
    sys_in: EnergySpectrum
    sys_out: EnergySpectrum
    battery: EnergySpectrum
    beta: float

    def __post_init__(self):
        # A read-only float64 array is kept as it is, so building a channel
        # from a frozen matrix does not double its memory; anything the
        # caller could still write to is copied.
        m = self.matrix
        if not (
            isinstance(m, np.ndarray)
            and m.dtype == np.float64
            and m.flags.c_contiguous
            and not m.flags.writeable
        ):
            m = np.array(m, dtype=float)
            m.setflags(write=False)
        nb = len(self.battery)
        if m.ndim != 2 or m.shape != (len(self.sys_out) * nb, len(self.sys_in) * nb):
            raise DimensionMismatch(
                f"matrix shape {m.shape} inconsistent with "
                f"d_out={len(self.sys_out)}, d_in={len(self.sys_in)}, n_battery={nb}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def d_in(self) -> int:
        return len(self.sys_in)

    @property
    def d_out(self) -> int:
        return len(self.sys_out)

    @property
    def n_battery(self) -> int:
        return len(self.battery)

    def blocks(self) -> np.ndarray:
        """View shaped [s', k', s, k]."""
        nb = self.n_battery
        return self.matrix.reshape(self.d_out, nb, self.d_in, nb)

    def joint_in_spectrum(self) -> EnergySpectrum:
        return joint_spectrum(self.sys_in, self.battery)

    def joint_out_spectrum(self) -> EnergySpectrum:
        return joint_spectrum(self.sys_out, self.battery)


def identity_channel(sys: EnergySpectrum, battery: EnergySpectrum, beta: float) -> ThermalChannel:
    dim = len(sys) * len(battery)
    return ThermalChannel(np.eye(dim), sys, sys, battery, beta)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_stochasticity_residual: float
    max_gibbs_residual: float
    column_residuals: np.ndarray = field(repr=False)
    row_residuals: np.ndarray = field(repr=False)
    entry_min: float
    entry_max: float
    stoch_tol: float
    gibbs_tol: float


def validate(
    channel: ThermalChannel,
    stoch_tol: float = STOCHASTIC_TOL,
    gibbs_tol: float = GIBBS_TOL,
) -> ValidationReport:
    """Check trace preservation per column and the Gibbs condition per row.

    A LadderChannel is checked from its blocks (LadderChannel.residuals);
    its entries are those of the stored blocks, and zero for N >= 2.
    """
    if isinstance(channel, LadderChannel):
        col_res, row_res = channel.residuals()
        entries = channel.block_stack if channel.num_quanta > 1 else channel.block_stack[:-1]
    else:
        m = entries = channel.matrix
        col_res = np.abs(m.sum(axis=0) - 1.0)

        lw_in = -channel.beta * channel.joint_in_spectrum().array
        lw_out = -channel.beta * channel.joint_out_spectrum().array
        # Gibbs condition row i: sum_j r_ij e^{-beta E_j} = e^{-beta E_i}, as a
        # log-sum-exp of every row at once, worked in place on the log matrix.
        # Each row is summed along the contiguous last axis, the same pairwise
        # sum as spectra.logsumexp on that row.  An all-zero row has residual 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.log(m, out=np.full_like(m, -np.inf), where=m > 0)
            a += lw_in
            top = a.max(axis=1)
            finite = np.isfinite(top)
            a -= np.where(finite, top, 0.0)[:, None]
            np.exp(a, out=a)
            s = top + np.log(a.sum(axis=1))
            row_res = np.where(finite, np.abs(np.expm1(s - lw_out)), 1.0)

    entry_min, entry_max = float(entries.min()), float(entries.max())
    ok = bool(
        float(col_res.max()) <= stoch_tol
        and float(row_res.max()) <= gibbs_tol
        and entry_min >= -1e-15
        and entry_max <= 1.0 + 1e-12
    )
    return ValidationReport(
        ok=ok,
        max_stochasticity_residual=float(col_res.max()),
        max_gibbs_residual=float(row_res.max()),
        column_residuals=col_res,
        row_residuals=row_res,
        entry_min=entry_min,
        entry_max=entry_max,
        stoch_tol=stoch_tol,
        gibbs_tol=gibbs_tol,
    )


def apply(
    channel: ThermalChannel,
    sys: DiagonalState | None = None,
    bat: DiagonalState | None = None,
    joint: DiagonalState | None = None,
) -> DiagonalState:
    """Push a product state (or an already-joint distribution) through the channel.

    A LadderChannel runs its block recursion (LadderChannel.apply_to).
    """
    if joint is None:
        if sys is None or bat is None:
            raise DomainError("provide either (sys, bat) or joint")
        if len(sys.spectrum) != channel.d_in or len(bat.spectrum) != channel.n_battery:
            raise DimensionMismatch("input state dimensions do not match the channel")
        vec = np.kron(sys.probs, bat.probs)
    else:
        if len(joint.probs) != channel.d_in * channel.n_battery:
            raise DimensionMismatch("joint input dimension does not match the channel")
        vec = joint.probs
    out = channel.apply_to(vec) if isinstance(channel, LadderChannel) else channel.matrix @ vec
    # No renormalization: the state validator enforces the 1e-12 budget, so
    # a channel that leaks probability fails loudly here.
    return DiagonalState(probs=out, spectrum=channel.joint_out_spectrum())


def sys_marginal(joint: DiagonalState, d_sys: int, n_battery: int) -> np.ndarray:
    return joint.probs.reshape(d_sys, n_battery).sum(axis=1)


def battery_marginal(joint: DiagonalState, d_sys: int, n_battery: int) -> np.ndarray:
    return joint.probs.reshape(d_sys, n_battery).sum(axis=0)


@dataclass(frozen=True)
class ETIReport:
    """Translation-invariance audit above a threshold battery level.

    `worst` is (s', s, k at the max, k at the min, d): the entry and the
    two input levels of band d = k' - k where the largest deviation lies.
    """

    holds: bool
    convention: str
    max_violation: float
    worst: tuple | None
    k_min: int
    row_max: int
    col_max: int
    tol: float


def _band_violation(r4: np.ndarray, k_min: int, row_max: int, col_max: int, convention: str):
    """Max |r(s'k'|sk) - r(s',k'+n|s,k+n)| over one window, band by band.

    On band d = k' - k the base blocks take k in [max(k_min, -d), hi] and
    the shifted blocks k in [t_lo, hi], hi = min(row_max, col_max - d);
    t_lo is max(k_min, -d) for "main" and max(0, k_min - d) for
    "appendix".  One range holds the other, so one gather serves both.
    The band's deviation is max(max_base - min_shifted, max_shifted -
    min_base), which is max - min when the two ranges coincide.
    """
    worst = 0.0
    where = None
    levels = np.arange(r4.shape[3])
    for d in range(-col_max, col_max + 1):
        lo = max(k_min, -d)
        hi = min(row_max, col_max - d)
        t_lo = lo if convention == "main" else max(0, k_min - d)
        k0 = min(lo, t_lo)
        if hi < lo or hi < t_lo:
            continue
        ks = levels[k0 : hi + 1]
        vals = r4[:, ks + d, :, ks]  # shape (len(ks), d_out, d_in)
        if t_lo == lo:
            top, bottom = vals.max(axis=0), vals.min(axis=0)
            s_bottom = bottom
            dev = top - bottom
        else:
            base, shifted = vals[lo - k0 :], vals[t_lo - k0 :]
            top, bottom = base.max(axis=0), base.min(axis=0)
            s_top, s_bottom = shifted.max(axis=0), shifted.min(axis=0)
            dev = np.maximum(top - s_bottom, s_top - bottom)
        band_worst = float(dev.max())
        if band_worst > worst:
            worst = band_worst
            a, b = np.unravel_index(np.argmax(dev), dev.shape)
            up, down = (lo, t_lo) if top[a, b] - s_bottom[a, b] == dev[a, b] else (t_lo, lo)
            k_at_hi = up + int(np.argmax(vals[up - k0 :, a, b]))
            k_at_lo = down + int(np.argmin(vals[down - k0 :, a, b]))
            where = (int(a), int(b), k_at_hi, k_at_lo, int(d))
    return worst, where


def check_eti(
    channel: ThermalChannel,
    k_min: int,
    convention: str = "main",
    row_max: int | None = None,
    col_max: int | None = None,
    tol: float = ETI_TOL,
) -> ETIReport:
    """Verify r(s'k'|sk) = r(s',k'+n|s,k+n) for k >= k_min.

    Each call audits one window, the one `convention` names:

    - "main": input levels k, k+n in [k_min, row_max] and output levels
      k', k'+n in [0, col_max];
    - "appendix": the base block has k in [k_min, row_max] and k' in
      [0, col_max], the shifted block k+n in [0, row_max] and k'+n in
      [k_min, col_max].

    `row_max`/`col_max` restrict the audit to an interior band (used to
    exclude the completed top row).

    A LadderChannel's "main" window above the vacuum and below the top row
    (k_min >= 1, row_max and col_max <= N-1) is translation-invariant by
    construction and is not scanned; every other window and every other
    channel gets the dense scan.
    """
    if channel.battery.uniform_spacing() is None:
        raise NonUniformBattery("ETI is defined for uniformly spaced batteries")
    if convention not in ("main", "appendix"):
        raise DomainError(f"unknown ETI window convention {convention!r}")
    nb = channel.n_battery
    row_max = nb - 1 if row_max is None else row_max
    col_max = nb - 1 if col_max is None else col_max
    if not (0 <= k_min <= row_max < nb and 0 <= col_max < nb):
        raise IndexOutOfRange("ETI band outside the battery range")

    if (
        isinstance(channel, LadderChannel)
        and convention == "main"
        and k_min >= 1
        and max(row_max, col_max) <= nb - 2
    ):
        violation, where = 0.0, None
    else:
        violation, where = _band_violation(channel.blocks(), k_min, row_max, col_max, convention)
    return ETIReport(
        holds=violation <= tol,
        convention=convention,
        max_violation=violation,
        worst=where,
        k_min=k_min,
        row_max=row_max,
        col_max=col_max,
        tol=tol,
    )


def extract_subchannels(channel: ThermalChannel, k: int, k_prime: int) -> np.ndarray:
    """The d_out x d_in block taking battery level k to level k'."""
    nb = channel.n_battery
    if not (0 <= k < nb and 0 <= k_prime < nb):
        raise IndexOutOfRange(f"battery indices ({k}, {k_prime}) outside 0..{nb - 1}")
    if isinstance(channel, LadderChannel):
        return channel.block_stack[channel.block_ids(k, k_prime)].copy()
    return channel.blocks()[:, k_prime, :, k].copy()


def _unit_row(i: int, dim: int) -> list[float]:
    row = [0.0] * dim
    row[i] = 1.0
    return row


def _raw_words(bit_generator: np.random.BitGenerator, block: int):
    """The generator's 64-bit output words, fetched `block` at a time."""
    while True:
        yield from bit_generator.random_raw(block).tolist()


def _halves(words, half: int | None):
    """numpy's 32-bit draws: a new word's low half, then its high half at the next draw."""
    if half is not None:
        yield half
    for word in words:
        yield word & 0xFFFFFFFF
        yield word >> 32


def _bounded(halves, high: int) -> int:
    """Lemire's draw on 0..high (ACM TOMACS 29(1), 3 (2019)), as numpy makes it."""
    if high == 0:
        return 0
    span = high + 1
    m = next(halves) * span
    if m & 0xFFFFFFFF < span:
        threshold = (1 << 32) % span
        while m & 0xFFFFFFFF < threshold:
            m = next(halves) * span
    return m >> 32


def _swap_draws(rng: np.random.Generator, dim: int, count: int) -> list[tuple[int, int, float]]:
    """`count` draws of (rng.choice(dim, 2, replace=False), rng.uniform()), bit for bit.

    Read from the raw words of rng's PCG64 generator as numpy reads them.
    The pair is Floyd's selection: a bounded draw on 0..dim-2, then one on
    0..dim-1 (dim - 1 if that repeats the first), then a draw on {0, 1}
    that swaps the pair when it is 0.  uniform() is (word >> 11) * 2^-53,
    from a word of its own, which leaves a kept high half in place.  A draw
    on 0..0 uses no bits.  Needs dim >= 2 when count > 0, and dim < 2^32
    (numpy takes other paths from there).  rng is left past the words
    fetched, not just past the draws.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    words = _raw_words(bit_generator, 3 * count + 2)  # at most 2.5 words a swap, bar rejections
    halves = _halves(words, state["uinteger"] if state["has_uint32"] else None)
    draws = []
    for _ in range(count):
        a = _bounded(halves, dim - 2)
        b = _bounded(halves, dim - 1)
        if b == a:
            b = dim - 1
        if _bounded(halves, 1) == 0:
            a, b = b, a
        draws.append((a, b, (next(words) >> 11) * 2.0**-53))
    return draws


def random_gibbs_stochastic(
    sys: EnergySpectrum,
    battery: EnergySpectrum,
    beta: float,
    seed: int,
    num_mixes: int,
) -> ThermalChannel:
    """Seeded random valid channel: a composition of partial beta-swaps.

    Each swap mixes two joint levels a, b (g_a >= g_b) with the 2x2
    Gibbs-preserving stochastic block [[1 - lam*g_b/g_a, lam],
    [lam*g_b/g_a, 1 - lam]], so the composition is stochastic and
    Gibbs-preserving by construction.

    Stream contract: swap i uses the i-th draw of
    `rng.choice(dim, size=2, replace=False)` and then `rng.uniform()` on
    `rng = np.random.default_rng(seed)` (the pair as choice orders it, then
    sorted by weight).  The draws are read from one block of the generator's
    raw words (`_swap_draws`), not through those calls, with the same bits.
    """
    if num_mixes < 0:
        raise DomainError("num_mixes must be >= 0")
    g = gibbs_weights(joint_spectrum(sys, battery), beta).tolist()
    dim = len(g)
    if num_mixes and dim < 2:
        raise DomainError(f"a beta-swap needs at least two joint levels, got {dim}")
    # The rows a swap has touched, as lists of Python floats (cheaper than
    # numpy calls on rows of a few entries); every other row is still a unit
    # row.  Each entry is two rounded products and their rounded sum, so the
    # matrix has the bits of the same update done on numpy rows.
    rows: dict[int, list[float]] = {}
    for a, b, lam in _swap_draws(np.random.default_rng(seed), dim, num_mixes):
        if g[a] < g[b]:
            a, b = b, a
        ratio = g[b] / g[a]
        row_a = rows.get(a) or _unit_row(a, dim)
        row_b = rows.get(b) or _unit_row(b, dim)
        keep_a, move_a, keep_b = 1.0 - lam * ratio, lam * ratio, 1.0 - lam
        rows[a] = [keep_a * x + lam * y for x, y in zip(row_a, row_b)]
        rows[b] = [move_a * x + keep_b * y for x, y in zip(row_a, row_b)]
    m = np.eye(dim)
    for i, row in rows.items():
        m[i] = row
    m.setflags(write=False)
    return ThermalChannel(m, sys, sys, battery, beta)


@dataclass(frozen=True)
class WitSubchannels:
    """The four substochastic system-space blocks of a two-level-battery channel.

    r01 maps battery 0 -> 1 and so on; together they satisfy trace
    preservation columnwise and the Gibbs pair conditions
    r00 g + e^{-beta delta} r10 g = g,
    r01 g + e^{-beta delta} r11 g = e^{-beta delta} g,
    with g the unnormalized system Gibbs weights.  Making the blocks checks
    both, and finite entries >= -1e-15, or raises InvalidSubchannels.
    """

    r00: np.ndarray
    r01: np.ndarray
    r10: np.ndarray
    r11: np.ndarray
    delta: float
    beta: float
    system: EnergySpectrum

    def __post_init__(self):
        d = len(self.system)
        for name in ("r00", "r01", "r10", "r11"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (d, d):
                raise DimensionMismatch(f"{name} has shape {m.shape}, expected ({d}, {d})")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if not self.delta >= 0:  # NaN too
            raise DomainError("wit gap must be non-negative")
        blocks = (self.r00, self.r01, self.r10, self.r11)
        # NaN fails every comparison below, so it has to be rejected here.
        if not all(np.isfinite(m).all() for m in blocks):
            raise InvalidSubchannels("non-finite subchannel entry")
        mins = min(m.min() for m in blocks)
        if mins < -1e-15:
            raise InvalidSubchannels(f"negative subchannel entry {mins}")
        stoch, gibbs = self.residuals()
        if stoch > STOCHASTIC_TOL:
            raise InvalidSubchannels(f"stochasticity residual {stoch}")
        if gibbs > GIBBS_TOL:
            raise InvalidSubchannels(f"Gibbs pair residual {gibbs}")

    @property
    def dim(self) -> int:
        return len(self.system)

    def gibbs_vector(self) -> np.ndarray:
        return gibbs_weights(self.system, self.beta)

    def residuals(self) -> tuple[float, float]:
        """(max stochasticity residual, max Gibbs pair residual).

        Each pair residual is relative to its own target: the first pair
        to g, the second, multiplied by e^{beta delta}, to g as well, as
        LadderChannel.residuals scales it.
        """
        g = self.gibbs_vector()
        e = np.exp(-self.beta * self.delta)
        stoch = max(
            float(np.max(np.abs((self.r00 + self.r01).sum(axis=0) - 1.0))),
            float(np.max(np.abs((self.r10 + self.r11).sum(axis=0) - 1.0))),
        )
        try:
            up = math.exp(self.beta * self.delta) * self.r01
        except OverflowError:  # past e^{709}; the exact product keeps zero entries zero
            up = _exp_times(self.beta, self.delta, self.r01)[0]
            if not np.isfinite(up).all():  # an entry past the float range: far off its target
                return stoch, math.inf
        pair0 = self.r00 @ g + e * (self.r10 @ g) - g
        pair1 = up @ g + self.r11 @ g - g
        gibbs = float(max(np.max(np.abs(pair0 / g)), np.max(np.abs(pair1 / g))))
        return stoch, gibbs

    @classmethod
    def from_channel(cls, channel: ThermalChannel) -> "WitSubchannels":
        if channel.n_battery != 2:
            raise DimensionMismatch("wit subchannels need a two-level battery")
        if channel.sys_in != channel.sys_out:
            raise SpectrumMismatch("wit subchannels assume a fixed system spectrum")
        delta = channel.battery.levels[1] - channel.battery.levels[0]
        return cls(
            r00=extract_subchannels(channel, 0, 0),
            r01=extract_subchannels(channel, 0, 1),
            r10=extract_subchannels(channel, 1, 0),
            r11=extract_subchannels(channel, 1, 1),
            delta=delta,
            beta=channel.beta,
            system=channel.sys_in,
        )

    def as_channel(self) -> LadderChannel:
        """The two-level-battery channel with these blocks: the N = 1 ladder."""
        return LadderChannel(self, 1)


def ladder_spectrum(num_quanta: int, delta: float) -> EnergySpectrum:
    """Battery spectrum of the (num_quanta+1)-level ladder extension."""
    if delta > 0:
        return EnergySpectrum.oscillator(num_quanta, delta)
    # Degenerate gap (delta = 0) arises only for trivial transitions.
    return EnergySpectrum(levels=np.zeros(num_quanta + 1), label="oscillator")


def _linear_scan(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v[0] = z[0] and v[k] = m v[k-1] + z[k], for the rows of z.

    Doubles the reach of every partial sum per step, v[k] += m^s v[k-s] for
    s = 1, 2, 4, ..., so the Python loop takes log2(len(z)) whole-array steps.
    """
    v = np.array(z, dtype=float)
    power, shift = m, 1
    while shift < len(v):
        v[shift:] += v[:-shift] @ power.T
        power, shift = power @ power, 2 * shift
    return v


@dataclass(frozen=True, init=False, repr=False)
class LadderChannel(ThermalChannel):
    """The completed (N+1)-level ladder extension of a wit operation.

    Built only from the wit blocks `sub` and an integer N = `num_quanta` >= 1
    (see construction.py for the block layout); N = 1 is the wit channel
    itself, and construction stores nothing else.  The channel's O(N)
    distinct d x d blocks, `block_stack`, are

      r00 r01^i (i < N), r01^N, r00 r01^i r11 (i < N-1), r01^j r11 (0 < j < N),
      r10, r11, and a zero block,

    at the indices `block_ids` gives each (k -> k') pair; the r01 powers are
    a sequential chain and every other family one batched product over
    them.  The stack is built on first read, by `validate` (and so
    `verify_extension`), `extract_subchannels` or `matrix`, then kept
    read-only.  `apply`, `conditional_band` and the work and bound kernels
    read only the wit blocks.  Every kernel in the package runs in
    O(N d^2) time and memory, except the scanned ETI windows.  `matrix` is
    assembled from the stack by one strided copy only when first read, then
    kept read-only; it is byte-identical to the earlier eager assembly.
    Every interior band is filled from one stored block, so translation
    invariance above the vacuum and below the top row holds exactly, and
    `check_eti` does not scan that window.  A foreign matrix cannot be
    attached: positional construction from a matrix and
    `dataclasses.replace` raise TypeError.
    """

    sub: WitSubchannels
    num_quanta: int

    def __init__(self, sub: WitSubchannels, num_quanta: int):
        if not isinstance(sub, WitSubchannels):
            raise TypeError("a LadderChannel is built from WitSubchannels and num_quanta")
        if not isinstance(num_quanta, (int, np.integer)) or num_quanta < 1:
            raise DomainError(f"num_quanta must be an integer >= 1, got {num_quanta!r}")
        n = num_quanta
        fields = {
            "sys_in": sub.system,
            "sys_out": sub.system,
            "battery": ladder_spectrum(n, sub.delta),
            "beta": sub.beta,
            "sub": sub,
            "num_quanta": n,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Copies and pickles keep only the wit operation and N; the block
        # stack and the matrix are built again when first read.
        return LadderChannel, (self.sub, self.num_quanta)

    def __repr__(self) -> str:
        # The dataclass repr would print, and so build, the dense matrix.
        sub = self.sub
        return f"LadderChannel(num_quanta={self.num_quanta}, d={sub.dim}, delta={sub.delta!r}, beta={sub.beta!r})"

    def block_ids(self, ks, kps) -> np.ndarray:
        """Index into `block_stack` of the k -> k' block, for broadcast integer arrays k, k'."""
        n = self.num_quanta
        ks, kps = np.broadcast_arrays(np.asarray(ks, dtype=np.intp), np.asarray(kps, dtype=np.intp))
        r10, r11, zero = 3 * n - 1, 3 * n, 3 * n + 1
        return np.select(
            [ks == 0, kps == ks - 1, (ks <= kps) & (kps < n), (kps == n) & (ks < n), kps == n],
            [kps, r10, n + 1 + kps - ks, 3 * n - 1 - ks, r11],
            default=zero,
        )

    @cached_property
    def block_stack(self) -> np.ndarray:
        """The (3N + 2, d, d) stack of distinct blocks, built on first read and then kept read-only."""
        sub, d, n = self.sub, self.sub.dim, self.num_quanta
        # The r01 powers are a sequential chain, each step one `ndarray.dot`
        # (the same BLAS product as matmul, called more cheaply); every other
        # family of blocks is one batched product over them, the same bits
        # as `@` block by block.
        powers = np.empty((n + 1, d, d))
        powers[0] = np.eye(d)
        for i in range(n):
            powers[i].dot(sub.r01, out=powers[i + 1])
        stack = np.empty((3 * n + 2, d, d))
        np.matmul(sub.r00, powers[:n], out=stack[:n])  # r00 r01^i
        stack[n] = powers[n]
        np.matmul(stack[: n - 1], sub.r11, out=stack[n + 1 : 2 * n])  # r00 r01^i r11
        np.matmul(powers[1:n], sub.r11, out=stack[2 * n : 3 * n - 1])  # r01^j r11
        stack[3 * n - 1], stack[3 * n], stack[3 * n + 1] = sub.r10, sub.r11, 0.0
        stack.setflags(write=False)
        return stack

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (d(N+1))^2 matrix, assembled on first use."""
        d, n, stack = self.d_in, self.num_quanta, self.block_stack
        nb = n + 1
        r4 = np.zeros((d, nb, d, nb))  # [s', k', s, k]
        if n >= 2:
            # Rows k' < N of an interior column k depend on k' - k alone:
            # zero below k - 1, r10 at k - 1, r00 r01^i r11 at k + i.  Column k
            # is the window of length N at N - 1 - k in `diagonal`, so one
            # strided copy fills every interior column.
            diagonal = np.zeros((2 * n - 2, d, d))
            diagonal[n - 2] = self.sub.r10
            diagonal[n - 1 :] = stack[n + 1 : 2 * n]
            windows = np.lib.stride_tricks.sliding_window_view(diagonal, n, axis=0)
            r4[:, :n, :, 1:n] = windows[::-1].transpose(1, 3, 2, 0)
        r4[:, :n, :, 0] = stack[:n].transpose(1, 0, 2)
        r4[:, n, :, 0] = stack[n]
        ks = np.arange(1, n)
        r4[:, n, :, ks] = stack[3 * n - 1 - ks]
        r4[:, n - 1, :, n] = self.sub.r10
        r4[:, n, :, n] = self.sub.r11
        matrix = r4.reshape(d * nb, d * nb)
        matrix.setflags(write=False)
        return matrix

    def apply_to(self, p: np.ndarray) -> np.ndarray:
        """R p for a joint input vector p, from the block recursion.

        With p_k the system vector at battery level k, v_0 = p_0 and
        v_k = r01 v_{k-1} + r11 p_k, output level k' < N is
        r00 v_k' + r10 p_{k'+1} and output level N is v_N.
        """
        sub, n = self.sub, self.num_quanta
        p = p.reshape(self.d_in, n + 1)
        z = (sub.r11 @ p).T
        z[0] = p[:, 0]
        v = _linear_scan(sub.r01, z)
        out = np.empty_like(v)
        out[:n] = v[:n] @ sub.r00.T + p[:, 1:].T @ sub.r10.T
        out[n] = v[n]
        return out.T.ravel()

    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """(column residuals, Gibbs row residuals), in joint index order, from the blocks.

        Column k sums the column sums of its blocks, with a prefix sum over
        the r00 r01^i r11 band.  The rows run apply_to's recursion on the
        Gibbs input g e^{-beta delta k}, with level k scaled by
        e^{beta delta k}: u_0 = g, u_k = e^{beta delta} r01 u_{k-1} + r11 g.
        Output level k' < N then receives r00 u_k' + e^{-beta delta} r10 g,
        and level N receives u_N, against the scaled Gibbs weight g.  The
        scaled vectors stay near g, so nothing underflows at large k.
        """
        sub, n, stack = self.sub, self.num_quanta, self.block_stack
        sums = stack.sum(axis=1)  # 1^T of every block
        cols = np.empty((n + 1, sub.dim))
        cols[0] = sums[: n + 1].sum(axis=0)
        band = np.cumsum(np.concatenate((np.zeros((1, sub.dim)), sums[n + 1 : 2 * n])), axis=0)
        ks = np.arange(1, n)
        cols[1:n] = sums[3 * n - 1] + band[n - ks] + sums[3 * n - 1 - ks]
        cols[n] = sums[3 * n - 1] + sums[3 * n]

        g = sub.gibbs_vector()
        bd = sub.beta * sub.delta
        z = np.empty((n + 1, sub.dim))
        z[0] = g
        z[1:] = sub.r11 @ g
        with np.errstate(over="ignore"):
            scale = np.exp(bd)
        # Past e^{709} the float factor is inf and inf * 0 is NaN; the exact
        # product keeps zero entries zero.
        up = scale * sub.r01 if np.isfinite(scale) else _exp_times(sub.beta, sub.delta, sub.r01)[0]
        u = _linear_scan(up, z)
        inflow = np.empty_like(u)
        inflow[:n] = u[:n] @ sub.r00.T + np.exp(-bd) * (sub.r10 @ g)
        inflow[n] = u[n]
        return np.abs(cols.T.ravel() - 1.0), np.abs(inflow / g - 1.0).T.ravel()

    def conditional_band(self) -> np.ndarray:
        """<e^{beta(w - f_s)}>_k for every input level k = 0..N, from the wit blocks.

        With w_s = e^{-beta(E_s - E_min)} and up = e^{beta delta} r01, the
        chains u_i = up^i r11 w and v_i = up^i w stay below w by the Gibbs
        pair conditions.  With gamma_i = 1^T r00 u_i and tau_j = 1^T u_j,
        column k >= 1 is e^{-beta delta} 1^T r10 w + sum_{i < N-k} gamma_i +
        tau_{N-k}, and column 0 is sum_{i < N} 1^T r00 v_i + 1^T v_N, all
        times e^{-beta E_min}.  Each chain is one scan and one prefix sum
        serves every column, O(N d^2) in all.  up is carried as a float
        plus its rounding error, and the scans carry the first-order effect
        of that error, so the N-fold products do not compound it.
        """
        sub, n, d = self.sub, self.num_quanta, self.sub.dim
        levels = sub.system.array
        e_min = levels.min()
        w = np.exp(-sub.beta * (levels - e_min))
        up, up_error = _exp_times(sub.beta, sub.delta, sub.r01)
        # A row of the scan is (x_i, c_i): x_{i+1} = up x_i and
        # c_{i+1} = up c_i + up_error x_i, so that x_i + c_i = (up + up_error)^i x_0.
        step = np.zeros((2 * d, 2 * d))
        step[:d, :d] = step[d:, d:] = up
        step[d:, :d] = up_error
        z = np.zeros((n + 1, 2 * d))
        z[0, :d] = w
        v = _linear_scan(step, z)
        z[0, :d] = sub.r11 @ w
        u = _linear_scan(step, z[:n])
        v, u = v[:, :d] + v[:, d:], u[:, :d] + u[:, d:]
        ones_r00 = sub.r00.sum(axis=0)  # 1^T r00
        gamma_sums = np.zeros(n)  # gamma_sums[m] = sum_{i < m} gamma_i
        gamma_sums[1:] = _linear_scan(np.ones((1, 1)), (u[: n - 1] @ ones_r00)[:, None])[:, 0]
        tau = u.sum(axis=1)
        m = n - np.arange(1, n + 1)  # N - k for k = 1..N
        band = np.empty(n + 1)
        band[0] = (v[:n] @ ones_r00).sum() + v[n].sum()
        band[1:] = np.exp(-sub.beta * sub.delta) * (sub.r10.sum(axis=0) @ w) + gamma_sums[m] + tau[m]
        return band * np.exp(-sub.beta * e_min)


def _exp_times(beta: float, delta: float, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo): hi + lo = e^{beta delta} m, hi its entries rounded to floats.

    The product is taken at 40 digits, with beta delta exact, so a zero
    entry stays zero however large beta delta is.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        factor = (Decimal(beta) * Decimal(delta)).exp()
        exact = [factor * Decimal(x) for x in m.flat]
        hi = [float(x) for x in exact]
        lo = [float(x - Decimal(h)) for x, h in zip(exact, hi)]
    return np.reshape(hi, m.shape), np.reshape(lo, m.shape)
