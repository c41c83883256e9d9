import numpy as np
import pytest
from numpy.testing import assert_allclose

from thermops import feasibility
from thermops.channels import random_gibbs_stochastic
from thermops.errors import DomainError, Infeasible, SolverFailure, SpectrumMismatch
from thermops.experiments import run_experiment
from thermops.feasibility import (
    CURVE_Y_TOL,
    LP_TOL,
    ThermoCurve,
    _least_x,
    _phase_one_simplex,
    formation_feasible_at,
    formation_gap_from_equilibrium,
    lp_feasible_transport,
    lp_transport_residual,
    min_formation_gap,
    thermo_curve,
    thermo_majorizes,
)
from thermops.spectra import DiagonalState, EnergySpectrum, d_max, gibbs_state, joint_spectrum

LN2 = np.log(2.0)
FUZZ_BETAS = (0.1, 1.0, 5.0, 20.0)


def qubit():
    return EnergySpectrum.trivial(2, "qubit")


def random_channel_image(p: DiagonalState, beta: float, seed: int) -> DiagonalState:
    """q reachable from p by construction (trivial one-level battery)."""
    ch = random_gibbs_stochastic(
        p.spectrum, EnergySpectrum((0.0,), "none"), beta, seed=seed, num_mixes=12
    )
    return DiagonalState(ch.matrix @ p.probs, p.spectrum)


class TestThermoCurve:
    def test_gibbs_is_straight_line(self):
        sp = EnergySpectrum((0.0, 0.5, 1.3))
        tau = gibbs_state(sp, 1.0)
        curve = thermo_curve(tau, 1.0)
        # All slopes equal: each vertex sits on the chord to (Z, 1).
        chord = curve.xs / curve.xs[-1]
        assert_allclose(curve.ys, chord, atol=1e-14)

    def test_pure_ground_state(self):
        sp = EnergySpectrum((0.2, 1.0))
        pure = DiagonalState.pure(0, sp)
        curve = thermo_curve(pure, 1.0)
        assert_allclose(curve.xs[1], np.exp(-0.2))
        assert curve.ys[1] == 1.0 and curve.ys[-1] == 1.0

    def test_degenerate_vertices(self):
        state = DiagonalState(np.array([0.7, 0.3]), qubit())
        curve = thermo_curve(state, 1.0)
        assert_allclose(curve.xs, [0.0, 1.0, 2.0])
        assert_allclose(curve.ys, [0.0, 0.7, 1.0])

    def test_concavity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            sp = EnergySpectrum(tuple(rng.uniform(0, 2, d)))
            state = DiagonalState(rng.dirichlet(np.ones(d)), sp)
            curve = thermo_curve(state, 1.0)
            slopes = np.diff(curve.ys) / np.diff(curve.xs)
            assert np.all(np.diff(slopes) <= 1e-12)


class TestThermoMajorizes:
    def test_pure_majorizes_uniform(self):
        p = DiagonalState(np.array([1.0, 0.0]), qubit())
        q = DiagonalState(np.array([0.5, 0.5]), qubit())
        assert thermo_majorizes(p, q, 1.0)
        assert not thermo_majorizes(q, p, 1.0)

    def test_less_pure_does_not_majorize(self):
        p = DiagonalState(np.array([0.7, 0.3]), qubit())
        q = DiagonalState(np.array([0.9, 0.1]), qubit())
        assert not thermo_majorizes(p, q, 1.0)

    def test_gibbs_is_bottom(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            sp = EnergySpectrum(tuple(rng.uniform(0, 2, d)))
            p = DiagonalState(rng.dirichlet(np.ones(d)), sp)
            assert thermo_majorizes(p, gibbs_state(sp, 1.0), 1.0)

    def test_transitivity_on_reachable_chains(self):
        rng = np.random.default_rng(13)
        for t in range(20):
            d = int(rng.integers(2, 6))
            sp = EnergySpectrum(tuple(rng.uniform(0, 1.5, d)))
            p = DiagonalState(rng.dirichlet(np.ones(d)), sp)
            q = random_channel_image(p, 1.0, seed=100 + t)
            r = random_channel_image(q, 1.0, seed=200 + t)
            assert thermo_majorizes(p, q, 1.0)
            assert thermo_majorizes(q, r, 1.0)
            assert thermo_majorizes(p, r, 1.0)

    def test_spectrum_mismatch(self):
        p = DiagonalState(np.array([0.5, 0.5]), qubit())
        q = DiagonalState(np.array([0.5, 0.5]), EnergySpectrum((0.0, 1.0)))
        with pytest.raises(SpectrumMismatch):
            thermo_majorizes(p, q, 1.0)


class TestLPTransport:
    def test_identity_feasible(self):
        p = DiagonalState(np.array([0.4, 0.6]), qubit())
        assert lp_feasible_transport(p, p, 1.0)

    def test_pure_to_uniform(self):
        p = DiagonalState(np.array([1.0, 0.0]), qubit())
        q = DiagonalState(np.array([0.5, 0.5]), qubit())
        assert lp_feasible_transport(p, q, 1.0)
        assert not lp_feasible_transport(q, p, 1.0)

    def test_agrees_with_curve_criterion(self):
        rng = np.random.default_rng(77)
        for t in range(80):
            d = int(rng.integers(2, 6))
            sp = EnergySpectrum(tuple(np.sort(rng.uniform(0, 1.5, d))))
            p = DiagonalState(rng.dirichlet(np.ones(d)), sp)
            if t % 2:
                q = random_channel_image(p, 1.0, seed=300 + t)
            else:
                q = DiagonalState(rng.dirichlet(np.ones(d)), sp)
            assert thermo_majorizes(p, q, 1.0) == lp_feasible_transport(p, q, 1.0)

    def test_residual_behind_the_verdict(self):
        p = DiagonalState(np.array([1.0, 0.0]), qubit())
        q = DiagonalState(np.array([0.5, 0.5]), qubit())
        assert lp_transport_residual(p, q, 1.0) <= 1e-15
        # Uniform is the degenerate qubit's Gibbs state, which every Gibbs-preserving map fixes.
        assert lp_transport_residual(q, p, 1.0) > LP_TOL

    def test_oracle_feasibility_reports_the_residual_split(self):
        res = run_experiment("oracle-feasibility", {"trials": 40})
        assert res.passed
        summary = res.summary
        assert 0.0 <= summary["max_feasible_lp_residual"] <= LP_TOL < summary["min_infeasible_lp_residual"]


class TestMinFormationGap:
    def test_erasure_gap(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState(np.array([0.75, 0.25]), qubit())
        gap = min_formation_gap(tau, sigma, 1.0)
        assert abs(gap - np.log(1.5)) < 2e-10

    def test_gibbs_target_needs_nothing(self):
        sp = EnergySpectrum((0.0, 0.8))
        tau = gibbs_state(sp, 1.0)
        rng = np.random.default_rng(4)
        rho = DiagonalState(rng.dirichlet(np.ones(2)), sp)
        assert min_formation_gap(rho, tau, 1.0) == 0.0

    def test_perfect_erasure_gap(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState.pure(0, qubit())
        gap = min_formation_gap(tau, sigma, 1.0)
        assert abs(gap - LN2) < 2e-10

    def test_matches_d_max_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            sp = EnergySpectrum(tuple(np.sort(rng.uniform(0, 1.2, d))))
            tau = gibbs_state(sp, 1.0)
            sigma = DiagonalState(rng.dirichlet(np.ones(d)), sp)
            gap = min_formation_gap(tau, sigma, 1.0)
            assert abs(gap - d_max(sigma, tau)) < 1e-8
            assert abs(gap - formation_gap_from_equilibrium(sigma, 1.0)) < 1e-8

    def test_feasibility_monotone_in_gap(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState(np.array([0.9, 0.1]), qubit())
        gap = min_formation_gap(tau, sigma, 1.0)
        for extra in (0.01, 0.1, 1.0):
            assert formation_feasible_at(tau, sigma, 1.0, gap + extra)
        assert not formation_feasible_at(tau, sigma, 1.0, gap - 1e-6)


def fuzz_spectrum(rng: np.random.Generator, d: int) -> EnergySpectrum:
    """Rounded levels in [0, 1.5]; in 30 % of cases two of them tied."""
    levels = np.round(np.sort(rng.uniform(0.0, 1.5, d)), 3)
    if rng.uniform() < 0.3:
        i = int(rng.integers(d - 1))
        levels[i + 1] = levels[i]
    return EnergySpectrum(tuple(levels))


def fuzz_probs(rng: np.random.Generator, d: int) -> np.ndarray:
    """Dirichlet probabilities; in 30 % of cases some levels set to zero."""
    p = rng.dirichlet(np.ones(d))
    if d > 2 and rng.uniform() < 0.3:
        p[rng.choice(d, size=int(rng.integers(1, d - 1)), replace=False)] = 0.0
    return p / p.sum()


def fuzz_formations(seed: int, count: int):
    """(rho, sigma, beta) with d = 2..8, beta in FUZZ_BETAS, rho Gibbs or random."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        d = int(rng.integers(2, 9))
        beta = FUZZ_BETAS[t % len(FUZZ_BETAS)]
        sp = fuzz_spectrum(rng, d)
        rho = gibbs_state(sp, beta) if rng.uniform() < 0.5 else DiagonalState(fuzz_probs(rng, d), sp)
        yield rho, DiagonalState(fuzz_probs(rng, d), sp), beta


def reference_bisection_gap(rho, sigma, beta, tol=1e-10, bracket_max=1e4):
    """The doubling-and-bisection search min_formation_gap used before its closed form."""
    if formation_feasible_at(rho, sigma, beta, 0.0):
        return 0.0
    hi = 1.0
    while not formation_feasible_at(rho, sigma, beta, hi):
        hi *= 2.0
        if hi > bracket_max:
            raise Infeasible(f"no wit gap up to {bracket_max} enables the transition")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if formation_feasible_at(rho, sigma, beta, mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.fixture
def probe_count(monkeypatch):
    """Counts the formation_feasible_at calls min_formation_gap makes."""
    calls = []

    def counted(rho, sigma, beta, delta):
        calls.append(delta)
        return formation_feasible_at(rho, sigma, beta, delta)

    monkeypatch.setattr(feasibility, "formation_feasible_at", counted)
    return calls


class TestClosedFormGap:
    def test_fuzz_matches_bisection(self, probe_count):
        for rho, sigma, beta in fuzz_formations(seed=8, count=3000):
            probe_count.clear()
            gap = min_formation_gap(rho, sigma, beta)
            assert len(probe_count) <= 3
            ref = reference_bisection_gap(rho, sigma, beta)
            assert abs(gap - ref) <= 1e-10
            assert formation_feasible_at(rho, sigma, beta, gap)
            assert gap == 0.0 or not formation_feasible_at(rho, sigma, beta, max(gap - 1.01e-10, 0.0))

    def test_curve_tolerance_shifts_the_target(self):
        # rho's last segment holds 1e-11 of probability over one unit of
        # weight, so reaching y = 1 - CURVE_Y_TOL instead of 1 on it saves
        # a tenth of the weight: gap ln(1.45) rather than ln(1.5).
        sp = EnergySpectrum.trivial(3)
        rho = DiagonalState(np.array([0.5, 0.5 - 1e-11, 1e-11]), sp)
        sigma = DiagonalState(np.array([0.5, 0.5, 0.0]), sp)
        gap = min_formation_gap(rho, sigma, 1.0)
        assert abs(gap - reference_bisection_gap(rho, sigma, 1.0)) <= 1e-10
        assert_allclose(gap, np.log(1.45), rtol=1e-4)

    def test_least_x_at_vertices(self):
        # Pure state on two degenerate levels: the curve reaches 1 at x = 1
        # and stays flat, so the least x for y = 1 is the vertex, not the end.
        curve = ThermoCurve(xs=np.array([0.0, 1.0, 2.0]), ys=np.array([0.0, 1.0, 1.0]))
        assert_allclose(_least_x(curve, np.array([0.25, 1.0])), [0.25, 1.0], rtol=0, atol=0)
        steep = ThermoCurve(xs=np.array([0.0, 1.0, 3.0, 4.0]), ys=np.array([0.0, 0.5, 1.0, 1.0]))
        assert_allclose(_least_x(steep, np.array([0.5, 0.75, 1.0])), [1.0, 2.0, 3.0], rtol=0, atol=0)

    def test_least_x_on_fuzzed_curves(self):
        for rho, sigma, beta in fuzz_formations(seed=9, count=200):
            source, target = thermo_curve(rho, beta), thermo_curve(sigma, beta)
            ys = target.ys[1:] - CURVE_Y_TOL
            on = ys > 0
            xs = _least_x(source, ys[on])
            # X(y) reaches y on the source curve, and nothing to its left does.
            assert np.all(source.value_at(xs) >= ys[on] - 1e-13)
            assert np.all(source.value_at(xs * (1 - 1e-9)) < ys[on])

    @pytest.mark.parametrize("offset", [3.7e-9, -3.7e-9, 2.5e-3])
    def test_probe_far_from_closed_form_steps_and_bisects(self, monkeypatch, offset):
        # A probe that passes only from `threshold` on, well above or below
        # the closed form, takes the doubling steps and the bisection back to tol.
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState(np.array([0.75, 0.25]), qubit())
        threshold = np.log(1.5) + offset
        calls = []

        def late(rho, s, beta, delta):
            calls.append(delta)
            return delta >= threshold

        monkeypatch.setattr(feasibility, "formation_feasible_at", late)
        gap = min_formation_gap(tau, sigma, 1.0)
        assert threshold <= gap <= threshold + 1e-10
        assert len(calls) < 60

    def test_zero_tolerance_raises_at_once(self, probe_count):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState(np.array([0.75, 0.25]), qubit())
        for tol in (0.0, -1e-10, float("nan")):
            with pytest.raises(DomainError):
                min_formation_gap(tau, sigma, 1.0, tol=tol)
        assert probe_count == []

    def test_bracket_max_still_bounds_the_gap(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState.pure(0, qubit())
        with pytest.raises(Infeasible):
            min_formation_gap(tau, sigma, 1.0, bracket_max=0.5)
        assert abs(min_formation_gap(tau, sigma, 1.0, bracket_max=0.7) - LN2) < 2e-10


def reference_joint_state_probe(rho, sigma, beta, delta):
    """The formation probe as first written: thermo_majorizes on the joint
    states rho (x) |1> and sigma (x) |0> over the system x wit levels."""

    def joint(state, wit_level):
        battery = np.zeros(2)
        battery[wit_level] = 1.0
        spectrum = joint_spectrum(state.spectrum, EnergySpectrum.wit(delta))
        return DiagonalState(np.outer(state.probs, battery).ravel(), spectrum)  # np.kron's entries

    return thermo_majorizes(joint(rho, 1), joint(sigma, 0), beta)


class TestCurveProbe:
    def test_fuzz_matches_joint_state_probe(self):
        """Same verdicts on 3,000 formations, at and next to the least gap."""
        rng = np.random.default_rng(10)
        verdicts = set()
        for rho, sigma, beta in fuzz_formations(seed=11, count=3000):
            deltas = [0.0]
            try:
                gap = min_formation_gap(rho, sigma, beta)
                closed = feasibility._curve_gap(rho, sigma, beta)
            except Infeasible:
                gap = closed = 0.0
            else:
                deltas += [gap, gap + 1e-10, gap - 1e-10, gap - 1.01e-10, closed + 1e-10, closed - 1e-10]
            deltas += list(rng.uniform(0.0, 2.0 * max(gap, closed) + 0.1, 5))
            for delta in deltas:
                if delta < 0.0:
                    continue
                verdict = formation_feasible_at(rho, sigma, beta, delta)
                assert verdict == reference_joint_state_probe(rho, sigma, beta, delta)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("delta", [-0.1, float("nan"), float("inf")])
    def test_gap_must_be_finite_and_non_negative(self, delta):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState(np.array([0.75, 0.25]), qubit())
        for probe in (formation_feasible_at, reference_joint_state_probe):
            with pytest.raises(DomainError):
                probe(tau, sigma, 1.0, delta)

    def test_spectrum_mismatch(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState(np.array([0.75, 0.25]), EnergySpectrum((0.0, 0.3)))
        with pytest.raises(SpectrumMismatch):
            formation_feasible_at(tau, sigma, 1.0, 0.5)


class TestBetaGuard:
    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0, 0.0])
    def test_every_oracle_rejects_beta(self, beta):
        sp = EnergySpectrum((0.0, 0.5))
        p = DiagonalState(np.array([0.7, 0.3]), sp)
        q = DiagonalState(np.array([0.6, 0.4]), sp)
        for call in (
            lambda: thermo_majorizes(p, q, beta),
            lambda: lp_feasible_transport(p, q, beta),
            lambda: lp_transport_residual(p, q, beta),
            lambda: formation_feasible_at(p, q, beta, 0.5),
            lambda: min_formation_gap(p, q, beta),
        ):
            with pytest.raises(DomainError):
                call()


def reference_loop_simplex(a, b, tol=1e-9):
    """_phase_one_simplex as it was written with per-entry Python loops.

    Returns (feasible, residual, pivots) with pivots the (entering column,
    leaving row) pairs in order.
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    pivots = []
    max_iter = 200 * (n + m)
    for _ in range(max_iter):
        costs = t[m, : n + m]
        enter = -1
        for j in range(n + m):
            if costs[j] < -1e-11:
                enter = j
                break
        if enter < 0:
            break
        col = t[:m, enter]
        best_ratio, leave = None, -1
        for i in range(m):
            if col[i] > 1e-11:
                ratio = t[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-13
                    or (abs(ratio - best_ratio) <= 1e-13 and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            raise SolverFailure("phase-one objective unbounded (cannot happen for valid input)")
        pivots.append((enter, leave))
        piv = t[leave, enter]
        t[leave] /= piv
        for i in range(m + 1):
            if i != leave and t[i, enter] != 0.0:
                t[i] -= t[i, enter] * t[leave]
        basis[leave] = enter
    else:
        raise SolverFailure(f"simplex did not converge within {max_iter} iterations")
    residual = float(-t[m, -1])
    return residual <= tol, residual, pivots


class TestLoopFreeSimplex:
    def test_fuzz_matches_loop_reference(self, monkeypatch):
        """Same pivots, verdicts and residual bits on 3,000 transport LPs."""
        pivots = []
        real_pivot = feasibility._bland_pivot

        def recorded(t, basis):
            choice = real_pivot(t, basis)
            if choice is not None:
                pivots.append(choice)
            return choice

        def both(a, b):
            ref = reference_loop_simplex(a, b)
            pivots.clear()
            residual = _phase_one_simplex(a, b)
            assert (residual <= LP_TOL, repr(residual)) == (ref[0], repr(ref[1]))  # repr keeps every bit, -0.0 too
            assert pivots == ref[2]
            return residual

        monkeypatch.setattr(feasibility, "_bland_pivot", recorded)
        monkeypatch.setattr(feasibility, "_phase_one_simplex", both)
        rng = np.random.default_rng(12)
        verdicts = set()
        for t in range(3000):
            d = int(rng.integers(2, 9))
            beta = FUZZ_BETAS[t % len(FUZZ_BETAS)]
            sp = fuzz_spectrum(rng, d)
            p = DiagonalState(fuzz_probs(rng, d), sp)
            if t % 2:
                q = random_channel_image(p, beta, seed=t)
            else:
                q = DiagonalState(fuzz_probs(rng, d), sp)
            verdicts.add(lp_feasible_transport(p, q, beta))
        assert verdicts == {True, False}
