import numpy as np
import pytest
from numpy.testing import assert_allclose

from thermops.batteries import CostFunction, average_work, general_cost, variance, work_distribution
from thermops.construction import auto_battery_size, extend_to_oscillator, truncation_tail
from thermops.erasure import (
    erasure_battery_state,
    exp_cost_oscillator,
    exp_cost_oscillator_closed_form,
    exp_cost_weight_bound,
    lambda_process,
    oscillator_average_work,
    oscillator_erasure_stats,
    oscillator_erasure_subchannels,
    oscillator_variance,
    weight_average_work,
    weight_error_bound,
    weight_process,
    weight_variance,
)
from thermops.errors import DomainError, PoleError
from thermops.spectra import DiagonalState

LN2 = np.log(2.0)


class TestWeightProcess:
    def test_quarter_error_shifts(self):
        wd, w0, w1 = weight_process(0.25, 1.0)
        assert_allclose(w0, -np.log(1.5), rtol=1e-15)
        assert_allclose(w1, LN2, rtol=1e-15)
        assert_allclose(wd.probs, [0.75, 0.25])

    def test_half_error_degenerates_to_point_mass(self):
        wd, w0, w1 = weight_process(0.5, 1.0)
        assert w0 == 0.0 and w1 == 0.0
        assert_allclose(wd.support, [0.0])
        assert_allclose(wd.probs, [1.0])

    def test_average_is_entropy_corrected_landauer(self):
        wd, _, _ = weight_process(0.25, 1.0)
        assert abs(average_work(wd) - weight_average_work(0.25)) < 1e-14
        assert_allclose(average_work(wd), -0.130812035941137, atol=1e-12)

    def test_gibbs_identities(self):
        for eps in (0.01, 0.2, 0.45, 0.7):
            _, w0, w1 = weight_process(eps, 1.0)
            assert abs(np.exp(w0) - 0.5 / (1 - eps)) < 1e-12
            assert abs(np.exp(w1) - 0.5 / eps) < 1e-12

    def test_variance_formula_matches_distribution(self):
        for eps in (0.05, 0.25, 0.4):
            wd, _, _ = weight_process(eps, 1.0)
            assert abs(variance(wd) - weight_variance(eps)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            weight_process(0.0, 1.0)


class TestWeightErrorBound:
    def test_zero_budget(self):
        assert weight_error_bound(0.0) == 0.5

    def test_ln2_budget(self):
        assert_allclose(weight_error_bound(LN2, 1.0), 0.25, rtol=1e-15)

    def test_vanishes_at_large_budget(self):
        assert weight_error_bound(100.0) < 1e-40


class TestLambdaProcess:
    def test_lambda_one_reduces_to_weight_process(self):
        eps = 0.2
        wd_ref, w0, w1_ref = weight_process(eps, 1.0)
        wd, w1 = lambda_process(eps, 1.0, 1.0)
        assert_allclose(w1, w1_ref, rtol=1e-13)
        assert_allclose(np.sort(wd.support), np.sort(wd_ref.support), rtol=1e-13)

    def test_small_lambda_concentrates(self):
        w0 = -(LN2 + np.log(0.9))
        wd, _ = lambda_process(0.1, 1e-4, 1.0)
        assert variance(wd) < 1e-2
        wd, _ = lambda_process(0.1, 1e-6, 1.0)
        assert abs(average_work(wd) - w0) < 1e-4

    def test_gibbs_conditions_across_grid(self):
        for eps in (0.05, 0.2, 0.4):
            for lam in (1e-6, 1e-3, 0.3, 1.0):
                wd, w1 = lambda_process(eps, lam, 1.0)
                w0 = -(LN2 + np.log1p(-eps))
                lhs = (1 - lam) * np.exp(w0) + lam * np.exp(w1)
                assert abs(lhs - 0.5 / eps) < 1e-12 * (0.5 / eps)

    def test_limit_is_fluctuation_free(self):
        wd, _ = lambda_process(0.1, 1e-6, 1.0)
        assert variance(wd) < 1e-4


class TestOscillatorSubchannels:
    def test_perfect_erasure_blocks(self):
        sub = oscillator_erasure_subchannels(0.0)
        assert_allclose(sub.r01, 0.5 * np.eye(2))
        assert_allclose(sub.r00[1], [0.5, 0.5])
        assert_allclose(sub.r10, [[1.0, 1.0], [0.0, 0.0]])
        assert_allclose(sub.delta, LN2, rtol=1e-15)

    def test_invariants_hold_symbolically(self):
        for eps in (0.0, 0.1, 0.3, 0.49):
            stoch, gibbs = oscillator_erasure_subchannels(eps).residuals()
            assert stoch < 1e-15 and gibbs < 1e-14

    def test_half_rejected(self):
        with pytest.raises(DomainError):
            oscillator_erasure_subchannels(0.5)


class TestOscillatorStats:
    def test_balanced_cell(self):
        r = oscillator_erasure_stats(0.0, 0.5)
        assert abs(r.avg_closed) < 1e-15
        assert_allclose(r.var_closed, 2 * LN2**2, rtol=1e-14)
        assert r.avg_rel_err < 1e-8 and r.var_rel_err < 1e-8

    def test_empty_vacuum_is_deterministic(self):
        for eps in (0.0, 0.1, 0.3):
            r = oscillator_erasure_stats(eps, 0.0)
            delta = LN2 + np.log1p(-eps)
            assert_allclose(r.avg_closed, -delta, rtol=1e-14)
            assert r.var_closed == 0.0
            assert abs(r.avg_sim + delta) < 1e-10
            assert r.var_sim < 1e-12

    def test_cross_oracle_cell(self):
        r = oscillator_erasure_stats(0.01, 0.05)
        assert r.tail < 1e-12
        assert r.avg_rel_err < 1e-8 and r.var_rel_err < 1e-8

    def test_stable_under_battery_doubling(self):
        a = oscillator_erasure_stats(0.1, 0.3)  # auto-sized ladder
        b = oscillator_erasure_stats(0.1, 0.3, num_quanta=2 * a.num_quanta)
        assert abs(a.avg_sim - b.avg_sim) < 1e-10
        assert abs(a.var_sim - b.var_sim) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            oscillator_erasure_stats(0.6, 0.1)
        with pytest.raises(DomainError):
            oscillator_erasure_stats(0.1, 0.25, num_quanta=1)

    def test_cells_beyond_the_dense_limit(self):
        # Ladders taller than any dense channel the package builds.
        for eps, n in ((0.495, 2777), (0.499, 13830)):
            r = oscillator_erasure_stats(eps, 0.25)
            assert r.num_quanta == n
            assert r.tail <= 1e-12
            assert r.avg_rel_err < 1e-10 and r.var_rel_err < 1e-10


    @pytest.mark.parametrize("eps, n", [(0.1, 48), (0.47, 475), (0.48, 705), (0.499, 13830)])
    def test_automatic_size_reports_the_tail_bits(self, eps, n):
        # The tail comes from the size search's probe at N; it must be the
        # same float as a fresh truncation_tail at that N.
        sub = oscillator_erasure_subchannels(eps)
        r = oscillator_erasure_stats(eps, 0.25)
        assert r.num_quanta == auto_battery_size(sub) == n
        assert r.tail.hex() == truncation_tail(sub, n).hex()
        assert oscillator_erasure_stats(eps, 0.25, num_quanta=n).tail.hex() == r.tail.hex()


class TestExpCost:
    def test_weight_bound_values(self):
        assert exp_cost_weight_bound(0.0) == 0.5
        assert_allclose(exp_cost_weight_bound(1.0 / 3.0), 0.25, rtol=1e-14)
        assert exp_cost_weight_bound(0.5) == 0.0
        assert exp_cost_weight_bound(0.9) == 0.0

    def test_empty_vacuum_costs_nothing(self):
        report = exp_cost_oscillator(0.1, 0.0, num_quanta=40)
        assert report.direct == 0.0

    def test_direct_grows_with_battery_size(self):
        small = exp_cost_oscillator(0.1, 0.2, num_quanta=40)
        big = exp_cost_oscillator(0.1, 0.2, num_quanta=80)
        assert big.direct > 1.5 * small.direct
        assert_allclose(small.tail_ratio, 1.0, rtol=1e-12)

    def test_matches_dense_extension(self):
        cost = CostFunction(evaluator=lambda x: np.expm1(abs(x)), tag="exp")
        for n in (40, 80):
            sub = oscillator_erasure_subchannels(0.1)
            ch = extend_to_oscillator(sub, n)
            sys = DiagonalState(np.full(2, 0.5), sub.system)
            wd = work_distribution(ch, sys, erasure_battery_state(0.2, ch.battery))
            report = exp_cost_oscillator(0.1, 0.2, num_quanta=n)
            assert abs(report.direct - general_cost(wd, cost)) <= 1e-12

    def test_direct_grows_with_gamma(self):
        lo = exp_cost_oscillator(0.2, 0.05, num_quanta=60)
        hi = exp_cost_oscillator(0.2, 0.3, num_quanta=60)
        assert hi.direct > lo.direct

    def test_closed_form_pole_at_zero_error(self):
        with pytest.raises(PoleError):
            exp_cost_oscillator_closed_form(0.0, 0.1)
        report = exp_cost_oscillator(0.0, 0.1, num_quanta=40)
        assert report.closed_form is None
        assert report.direct > 0.0

    def test_closed_form_discrepancy_reported(self):
        report = exp_cost_oscillator(0.2, 0.1, num_quanta=60)
        assert report.closed_form is not None
        assert report.discrepancy == abs(report.direct - report.closed_form)


class TestTheorem4Consistency:
    def test_variance_floor_across_grid(self):
        for eps in (0.0, 0.05, 0.1, 0.2, 0.3):
            for gamma in (0.0, 0.05, 0.1, 0.25, 0.5):
                avg = oscillator_average_work(eps, gamma)
                var = oscillator_variance(eps, gamma)
                assert var >= gamma * avg**2 - 1e-12
