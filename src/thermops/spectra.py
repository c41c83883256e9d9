"""Energy spectra, diagonal states, and free-energy functionals.

All energies are beta-reduced (dimensionless, k_B T = 1 by default) and the
inverse temperature beta enters every formula explicitly.  Natural logarithms
throughout, so that erasing one bit costs ln 2 at beta = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    IndexOutOfRange,
    OverflowRisk,
    SpectrumMismatch,
    SupportMismatch,
    ZeroProbability,
)

# Largest |beta * E| fed to exp(); beyond this doubles overflow.
EXP_GUARD = 700.0

PROB_SUM_TOL = 1e-12
# Least entry a probability vector or a channel may hold: an entry between
# NEG_FLOOR and 0 is taken as rounding below zero.
NEG_FLOOR = -1e-15
# uniform_spacing: absolute on the first level, relative to max(1, top level)
# on the deviation of every level from k * delta.
SPACING_TOL = 1e-12
# OpenBLAS runs a dot product of more than this many terms on several
# threads, and the partial sums then depend on the thread count.
SERIAL_DOT_MAX = 10_000


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) without overflow; -inf entries are allowed."""
    a = np.asarray(a, dtype=float).ravel()
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(a - m))))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b for 1-D vectors, with bits that do not depend on the BLAS thread count.

    Up to SERIAL_DOT_MAX terms this is `@`, which BLAS runs on one thread at
    any thread count; longer vectors take numpy's pairwise sum of the
    products, which uses no threads.
    """
    if len(a) <= SERIAL_DOT_MAX:
        return float(a @ b)
    return float((a * b).sum())


def binary_entropy(x: float) -> float:
    """h(x) = -(1-x)ln(1-x) - x ln x, continuous at the endpoints."""
    if x < 0.0 or x > 1.0:
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    out = 0.0
    if 0.0 < x:
        out -= x * np.log(x)
    if x < 1.0:
        out -= (1.0 - x) * np.log1p(-x)
    return out


class EnergySpectrum:
    """Ordered energy levels of a system or battery, in units of k_B T.

    The levels are held as one read-only float64 array, `array`, returned
    without a copy; `levels` gives the same values as a tuple of Python
    floats, built on first read.  Two spectra are equal when their levels
    are equal (so -0.0 equals 0.0, and the hash agrees); the label is a tag
    only and takes no part in equality.  A spectrum is immutable.
    """

    def __init__(self, levels, label: str = ""):
        # A read-only float64 array is kept as it is, so spectra built from
        # one share it; anything the caller could still write to is copied.
        arr = levels
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and not arr.flags.writeable):
            arr = np.array(levels, dtype=float)
            arr.setflags(write=False)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("spectrum needs at least one level")
        if not np.all(np.isfinite(arr)):
            raise DomainError("spectrum levels must be finite")
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError(f"EnergySpectrum is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EnergySpectrum is immutable; cannot delete {name!r}")

    @cached_property
    def levels(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    @cached_property
    def _hash(self) -> int:
        return hash((self.array + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, EnergySpectrum):
            return NotImplemented
        a, b = self.array, other.array
        return a.shape == b.shape and bool((a == b).all())

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self) -> str:
        return f"EnergySpectrum(levels={self.levels!r}, label={self.label!r})"

    def __reduce__(self):
        return EnergySpectrum, (self.array, self.label)

    @classmethod
    def trivial(cls, dim: int, label: str = "degenerate") -> "EnergySpectrum":
        """Fully degenerate spectrum (H = 0) with `dim` levels."""
        return cls(levels=(0.0,) * dim, label=label)

    @classmethod
    def oscillator(cls, num_quanta: int, delta: float, label: str = "oscillator") -> "EnergySpectrum":
        """Uniform ladder eps_k = k*delta for k = 0..num_quanta (num_quanta+1 levels)."""
        if num_quanta < 1:
            raise DomainError("oscillator needs num_quanta >= 1")
        if delta <= 0:
            raise DomainError("oscillator spacing must be positive")
        # k is exact in float64, so each level has the bits of k * delta.
        return cls(levels=np.arange(num_quanta + 1) * delta, label=label)

    @classmethod
    def wit(cls, delta: float, label: str = "wit") -> "EnergySpectrum":
        """Two-level battery {0, delta}."""
        if delta < 0:
            raise DomainError("wit gap must be non-negative")
        return cls(levels=(0.0, delta), label=label)

    def uniform_spacing(self) -> float | None:
        """Spacing delta if the ladder is uniform starting at 0 (to SPACING_TOL), else None."""
        arr = self.array
        if len(arr) < 2:
            return None
        delta = arr[1] - arr[0]
        if delta <= 0 or abs(arr[0]) > SPACING_TOL:
            return None
        expected = arr[0] + delta * np.arange(len(arr))
        if np.max(np.abs(arr - expected)) > SPACING_TOL * max(1.0, abs(arr[-1])):
            return None
        return float(delta)


def joint_spectrum(sys: EnergySpectrum, battery: EnergySpectrum) -> EnergySpectrum:
    """Product spectrum over pairs (s, k), flattened system-major."""
    levels = (sys.array[:, None] + battery.array[None, :]).ravel()
    return EnergySpectrum(levels=levels, label=f"{sys.label}*{battery.label}")


def checked_probabilities(p: np.ndarray) -> np.ndarray:
    """A non-empty float vector p as probabilities: entries clipped to >= 0, sum 1.

    Raises DomainError on an entry below NEG_FLOOR, or unless the clipped
    entries sum to 1 within PROB_SUM_TOL; a NaN or inf entry fails the sum.
    Returns the clipped copy.
    """
    low = np.min(p)
    if low < NEG_FLOOR:
        raise DomainError(f"negative probability {low}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise DomainError(f"probabilities sum to {total}, expected 1")
    return p


@dataclass(frozen=True)
class DiagonalState:
    """Probability vector over an energy spectrum (energy-diagonal state)."""

    probs: np.ndarray
    spectrum: EnergySpectrum = field(repr=False)

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or len(p) != len(self.spectrum):
            raise SpectrumMismatch(
                f"state has {p.size} entries for a {len(self.spectrum)}-level spectrum"
            )
        p = checked_probabilities(p)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def pure(cls, index: int, spectrum: EnergySpectrum) -> "DiagonalState":
        if not 0 <= index < len(spectrum):
            raise IndexOutOfRange(f"level {index} outside spectrum of size {len(spectrum)}")
        p = np.zeros(len(spectrum))
        p[index] = 1.0
        return cls(probs=p, spectrum=spectrum)


def check_beta(beta: float) -> None:
    """Raise DomainError unless beta is a finite positive number."""
    if not (math.isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be finite and positive, got {beta}")


def _check_exp_range(spectrum: EnergySpectrum, beta: float) -> None:
    check_beta(beta)
    worst = beta * np.max(np.abs(spectrum.array))
    if worst > EXP_GUARD:
        raise OverflowRisk(f"beta*|E| = {worst} exceeds the {EXP_GUARD} guard")


def partition_function(spectrum: EnergySpectrum, beta: float) -> float:
    """Z = sum_i exp(-beta E_i), via log-sum-exp."""
    _check_exp_range(spectrum, beta)
    return float(np.exp(logsumexp(-beta * spectrum.array)))


def gibbs_state(spectrum: EnergySpectrum, beta: float) -> DiagonalState:
    """Thermal state g(i) = exp(-beta E_i)/Z."""
    _check_exp_range(spectrum, beta)
    logw = -beta * spectrum.array
    p = np.exp(logw - logsumexp(logw))
    p /= p.sum()
    return DiagonalState(probs=p, spectrum=spectrum)


def gibbs_weights(spectrum: EnergySpectrum, beta: float) -> np.ndarray:
    """Unnormalized Gibbs weights exp(-beta E_i)."""
    _check_exp_range(spectrum, beta)
    return np.exp(-beta * spectrum.array)


def free_energy(state: DiagonalState, beta: float) -> float:
    """F = <E> - S/beta with S = -sum p ln p (0 ln 0 = 0)."""
    p = state.probs
    energy = dot(p, state.spectrum.array)
    nz = p[p > 0]
    entropy = float(-np.sum(nz * np.log(nz)))
    return energy - entropy / beta


def fine_grained_free_energy(state: DiagonalState, beta: float, index: int) -> float:
    """Per-level f_i = E_i + ln(p_i)/beta; its p-average is free_energy."""
    if not 0 <= index < len(state.spectrum):
        raise IndexOutOfRange(f"level {index} outside spectrum")
    p = state.probs[index]
    if p <= 0.0:
        raise ZeroProbability(f"f is -inf on zero-probability level {index}")
    return float(state.spectrum.array[index] + np.log(p) / beta)


def d_max(state: DiagonalState, reference: DiagonalState) -> float:
    """Max-relative entropy ln max_i p_i/q_i over the support of p."""
    if state.spectrum != reference.spectrum:
        raise SpectrumMismatch("d_max requires a common spectrum")
    p, q = state.probs, reference.probs
    mask = p > 0
    if np.any(q[mask] == 0):
        raise SupportMismatch("reference vanishes on the support of the state")
    return float(np.max(np.log(p[mask]) - np.log(q[mask])))
