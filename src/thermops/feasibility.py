"""Thermomajorization order, its Lorenz-type curve, and an LP transport oracle.

Two independent routes decide whether p can be taken to q by a
Gibbs-preserving stochastic matrix: the sorted rescaled-cumulative curve
criterion, and a phase-one simplex feasibility solve over the transport
polytope {R >= 0, 1^T R = 1^T, R g = g, R p = q}.  They must agree.

The least wit gap for forming sigma out of rho (Horodecki and Oppenheim,
Nat. Commun. 4, 2059 (2013)) is read off the two curves.  At gap delta the
curve of rho (x) |1> is L_rho(e^{beta delta} x), and the curve of
sigma (x) |0> is L_sigma continued flat.  `formation_feasible_at` decides
one gap on these two d-level curves, with rho's weights taken on its levels
raised by delta (the joint state's own weights, not L_rho's x-axis scaled
by e^{-beta delta}, which rounds differently).  The curve criterion holds at
every vertex (x_i, y_i) of L_sigma iff e^{beta delta} x_i >= X_rho(y_i - tol),
where X_rho(y) is the least x with L_rho(x) >= y and tol = CURVE_Y_TOL, so

    delta* = max(0, max_i ln(X_rho(y_i - tol) / x_i) / beta),

taken over the vertices with y_i - tol > 0.  For rho = tau this is
D_max(sigma || tau) / beta.  `min_formation_gap` checks delta* and its
neighbours with `formation_feasible_at`, so every gap it returns passes
the curve criterion itself and lies within `tol` of the least one that
does (taking, as the earlier bisection did, that the probe's verdict
turns once as delta grows).

The oracles (`thermo_majorizes`, `lp_feasible_transport` and its
`lp_transport_residual`, `formation_feasible_at`, `min_formation_gap`)
raise DomainError unless beta is finite and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Infeasible, SolverFailure, SpectrumMismatch
from .spectra import DiagonalState, check_beta, d_max

CURVE_Y_TOL = 1e-12
LP_TOL = 1e-9


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear concave curve of cumulative (Gibbs weight, probability)."""

    xs: np.ndarray
    ys: np.ndarray

    def value_at(self, x) -> np.ndarray:
        return np.interp(x, self.xs, self.ys)

    def lies_above(self, other: "ThermoCurve", tol: float = CURVE_Y_TOL) -> bool:
        """True iff this curve is at least other's y - tol at every vertex of other."""
        return bool(np.all(self.value_at(other.xs) >= other.ys - tol))


def _curve(probs: np.ndarray, energies: np.ndarray, beta: float) -> ThermoCurve:
    """Sort levels by p_i e^{beta E_i} descending (ties by index) and accumulate."""
    slopes = probs * np.exp(beta * energies)
    order = np.lexsort((np.arange(len(slopes)), -slopes))
    w = np.exp(-beta * energies)[order]
    p = probs[order]
    xs = np.concatenate(([0.0], np.cumsum(w)))
    ys = np.concatenate(([0.0], np.cumsum(p)))
    return ThermoCurve(xs=xs, ys=ys)


def thermo_curve(state: DiagonalState, beta: float) -> ThermoCurve:
    """The thermo-curve of a state on its own levels."""
    return _curve(state.probs, state.spectrum.array, beta)


def thermo_majorizes(p: DiagonalState, q: DiagonalState, beta: float, tol: float = CURVE_Y_TOL) -> bool:
    """True iff curve(p) lies on or above curve(q) at every vertex of curve(q)."""
    check_beta(beta)
    if p.spectrum != q.spectrum:
        raise SpectrumMismatch("thermomajorization compares states on one spectrum")
    return thermo_curve(p, beta).lies_above(thermo_curve(q, beta), tol)


def _bland_pivot(t: np.ndarray, basis: list[int]) -> tuple[int, int] | None:
    """Bland's rule on the tableau: (entering column, leaving row), None at the optimum.

    The leaving row is -1 when no entry of the entering column is positive.
    """
    improving = t[-1, :-1] < -1e-11
    enter = int(improving.argmax())  # the first improving column, if any
    if not improving[enter]:
        return None
    col = t[:-1, enter]
    rows = np.flatnonzero(col > 1e-11)
    ratios = t[rows, -1] / col[rows]
    # Walked in row order: the 1e-13 tie window moves with the best ratio,
    # so the smallest-basis-index tie break is not an argmin.
    best_ratio, leave = None, -1
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if (
            best_ratio is None
            or ratio < best_ratio - 1e-13
            or (abs(ratio - best_ratio) <= 1e-13 and basis[i] < basis[leave])
        ):
            best_ratio, leave = ratio, i
    return enter, leave


def _phase_one_simplex(a: np.ndarray, b: np.ndarray) -> float:
    """Feasibility of {A x = b, x >= 0} by minimizing the artificial mass.

    Dense tableau simplex with Bland's rule.  Returns the residual, the
    optimal artificial objective (0 up to rounding when the set is non-empty).
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Tableau over [x | artificials | rhs]; objective row selects artificials.
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    max_iter = 200 * (n + m)
    for _ in range(max_iter):
        pivot = _bland_pivot(t, basis)
        if pivot is None:
            break
        enter, leave = pivot
        if leave < 0:
            raise SolverFailure("phase-one objective unbounded (cannot happen for valid input)")
        piv = t[leave, enter]
        t[leave] /= piv
        # One block update of every other row with a non-zero entry in the
        # entering column: the loop's multiply-then-subtract, and rows it
        # skipped stay untouched (so no -0.0 turns into 0.0).
        factors = t[:, enter]
        rows = factors != 0.0
        rows[leave] = False
        np.subtract(t, np.multiply.outer(factors, t[leave]), out=t, where=rows[:, None])
        basis[leave] = enter
    else:
        raise SolverFailure(f"simplex did not converge within {max_iter} iterations")

    return float(-t[m, -1])


def lp_transport_residual(p: DiagonalState, q: DiagonalState, beta: float) -> float:
    """Phase-one residual of the transport LP {R >= 0, 1^T R = 1^T, R g = g, R p = q}.

    The artificial mass the simplex could not drive out: 0 up to rounding
    when the transport exists.  `lp_feasible_transport` is residual <= LP_TOL.
    """
    check_beta(beta)
    if p.spectrum != q.spectrum:
        raise SpectrumMismatch("transport requires a common spectrum")
    d = len(p.spectrum)
    g = np.exp(-beta * p.spectrum.array)
    g = g / g.sum()  # normalized fixed point, better conditioned

    # Variables R_ij flattened row-major; constraint rows: column sums,
    # R g = g, R p = q.  The last two blocks are np.kron(eye, g) and
    # np.kron(eye, p), broadcast (np.kron costs about 20 us a call here).
    eye = np.eye(d)
    diag = eye[:, :, None]
    a = np.vstack((np.tile(eye, d), (diag * g).reshape(d, -1), (diag * p.probs).reshape(d, -1)))
    b = np.concatenate((np.ones(d), g, q.probs))

    return _phase_one_simplex(a, b)


def lp_feasible_transport(p: DiagonalState, q: DiagonalState, beta: float) -> bool:
    """Decide existence of R >= 0 with unit column sums, R g = g and R p = q."""
    return lp_transport_residual(p, q, beta) <= LP_TOL


def formation_feasible_at(rho: DiagonalState, sigma: DiagonalState, beta: float, delta: float) -> bool:
    """Is rho (x) |1> -> sigma (x) |0> allowed at wit gap delta?  (Two d-level curves.)"""
    if not (math.isfinite(delta) and delta >= 0):
        raise DomainError(f"wit gap must be finite and non-negative, got {delta}")
    check_beta(beta)
    if rho.spectrum != sigma.spectrum:
        raise SpectrumMismatch("formation needs both states on one system spectrum")
    source = _curve(rho.probs, rho.spectrum.array + delta, beta)
    return source.lies_above(thermo_curve(sigma, beta))


def _least_x(curve: ThermoCurve, y: np.ndarray) -> np.ndarray:
    """X(y), the least x with curve.value_at(x) >= y, for each 0 < y <= curve.ys[-1]."""
    j = np.searchsorted(curve.ys, y, side="left")  # ys[j-1] < y <= ys[j]
    x0, y0 = curve.xs[j - 1], curve.ys[j - 1]
    return x0 + (y - y0) * (curve.xs[j] - x0) / (curve.ys[j] - y0)


def _curve_gap(rho: DiagonalState, sigma: DiagonalState, beta: float) -> float:
    """delta* from the module docstring: the least gap the two curves allow."""
    source = thermo_curve(rho, beta)
    target = thermo_curve(sigma, beta)
    ys = target.ys[1:] - CURVE_Y_TOL
    if ys[-1] > source.ys[-1]:
        raise Infeasible("the target curve ends above the source curve; no wit gap enables the transition")
    bound = ys > 0.0
    ratios = _least_x(source, ys[bound]) / target.xs[1:][bound]
    return float(np.log(np.max(ratios, initial=1.0))) / beta  # the max(0, .) of delta*


def min_formation_gap(
    rho: DiagonalState,
    sigma: DiagonalState,
    beta: float,
    tol: float = 1e-10,
    bracket_max: float = 1e4,
) -> float:
    """Least wit gap making the formation transition feasible, to within `tol`.

    Exactly 0.0 when the transition needs no gap.  Otherwise the closed form
    delta* of the module docstring is checked with `formation_feasible_at`,
    and then delta* - tol if it passed or delta* + tol if it failed, which
    usually settles the answer in three probes.  Where rounding in the probe's own curves puts
    its verdict further from delta* (a source segment of tiny probability
    makes X_rho ill-conditioned), the step doubles until the verdict turns
    and a bisection brings the bracket back to `tol`.  The gap returned
    always passes the probe.  Raises Infeasible when no gap up to
    `bracket_max` enables the transition.
    """
    if not tol > 0.0:
        raise DomainError(f"gap tolerance must be positive, got {tol}")
    if rho.spectrum != sigma.spectrum:
        raise SpectrumMismatch("formation gap needs both states on one system spectrum")
    if formation_feasible_at(rho, sigma, beta, 0.0):
        return 0.0
    gap = _curve_gap(rho, sigma, beta)
    if gap > bracket_max:
        raise Infeasible(f"no wit gap up to {bracket_max} enables the transition")

    def feasible(delta: float) -> bool:
        return delta > 0.0 and formation_feasible_at(rho, sigma, beta, delta)

    # Bracket the probe's least gap: lo fails, hi passes, hi - lo <= width.
    width = tol
    if feasible(gap):
        hi, lo = gap, gap - width
        while feasible(lo):
            hi, width = lo, 2.0 * width
            lo = hi - width
        lo = max(lo, 0.0)
    else:
        lo, hi = gap, gap + width
        while not feasible(hi):
            if hi > bracket_max:
                raise Infeasible(f"no wit gap up to {bracket_max} enables the transition")
            lo, width = hi, 2.0 * width
            hi = lo + width
    while width > tol:
        width *= 0.5
        mid = lo + width
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def formation_gap_from_equilibrium(sigma: DiagonalState, beta: float) -> float:
    """Closed-form gap for forming sigma out of the Gibbs state: D_max/beta."""
    from .spectra import gibbs_state

    tau = gibbs_state(sigma.spectrum, beta)
    try:
        return d_max(sigma, tau) / beta
    except Exception as exc:  # Gibbs state always has full support
        raise DomainError(str(exc)) from exc
