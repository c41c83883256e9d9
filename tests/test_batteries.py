import numpy as np
import pytest
from numpy.testing import assert_allclose

from thermops.batteries import (
    CostFunction,
    WorkDistribution,
    average_work,
    battery_energy_change,
    f1_measure,
    general_cost,
    theorem4_check,
    variance,
    work_distribution,
)
from thermops.channels import identity_channel, random_gibbs_stochastic
from thermops.construction import extend_to_oscillator
from thermops.erasure import oscillator_erasure_subchannels
from thermops.errors import DomainError, PreconditionViolated
from thermops.experiments import thermalization_subchannels
from thermops.spectra import DiagonalState, EnergySpectrum, binary_entropy, gibbs_state

LN2 = np.log(2.0)


def qubit():
    return EnergySpectrum.trivial(2, "qubit")


class TestWorkDistribution:
    def test_point_mass_from_identity_channel(self):
        ch = identity_channel(qubit(), EnergySpectrum.oscillator(4, 1.0), 1.0)
        wd = work_distribution(
            ch, DiagonalState(np.array([0.2, 0.8]), qubit()), DiagonalState.pure(2, ch.battery)
        )
        assert_allclose(wd.support, [0.0])
        assert_allclose(wd.probs, [1.0])

    def test_wit_thermalization_distribution(self):
        # beta*delta = ln 2: up-jump probability 1/3, stay 2/3, <w> = ln2/3.
        sub = thermalization_subchannels(1.0, LN2)
        ch = sub.as_channel()
        sys = gibbs_state(sub.system, 1.0)
        wd = work_distribution(ch, sys, DiagonalState.pure(0, ch.battery))
        assert_allclose(wd.prob_of(LN2), 1.0 / 3.0, rtol=1e-14)
        assert_allclose(wd.prob_of(0.0), 2.0 / 3.0, rtol=1e-14)
        assert_allclose(average_work(wd), LN2 / 3.0, rtol=1e-13)

    def test_perfect_erasure_point_mass(self):
        sub = oscillator_erasure_subchannels(0.0)
        ch = extend_to_oscillator(sub, 12)
        sys = DiagonalState(np.full(2, 0.5), sub.system)
        for k in (1, 4, 9):
            wd = work_distribution(ch, sys, DiagonalState.pure(k, ch.battery))
            assert_allclose(wd.support, [-LN2])
            assert_allclose(wd.probs, [1.0])

    def test_merges_equal_values(self):
        wd = WorkDistribution(
            support=np.array([0.5, 0.5 + 1e-15, -0.5]), probs=np.array([0.25, 0.25, 0.5])
        )
        assert len(wd.support) == 2
        assert_allclose(wd.prob_of(0.5), 0.5)

    def test_average_matches_battery_energy_change(self):
        sys = EnergySpectrum((0.0, 0.6), "sys")
        bat = EnergySpectrum.oscillator(5, 0.7)
        ch = random_gibbs_stochastic(sys, bat, 1.0, seed=17, num_mixes=40)
        rng = np.random.default_rng(2)
        s = DiagonalState(rng.dirichlet(np.ones(2)), sys)
        b = DiagonalState(rng.dirichlet(np.ones(6)), bat)
        wd = work_distribution(ch, s, b)
        assert abs(average_work(wd) - battery_energy_change(ch, s, b)) < 1e-12

    def test_interior_input_independence(self):
        # Extensions act identically from any interior ladder level.
        rng = np.random.default_rng(6)
        sysp = EnergySpectrum(tuple(np.sort(rng.uniform(0, 1, 2))), "sys")
        wit = random_gibbs_stochastic(sysp, EnergySpectrum.wit(1.0), 1.0, seed=20, num_mixes=25)
        from thermops.channels import WitSubchannels

        ch = extend_to_oscillator(WitSubchannels.from_channel(wit), 40)
        sys = DiagonalState(rng.dirichlet(np.ones(2)), sysp)
        base = work_distribution(ch, sys, DiagonalState.pure(1, ch.battery))
        for k in (2, 3, 5):
            other = work_distribution(ch, sys, DiagonalState.pure(k, ch.battery))
            support = np.union1d(base.support, other.support)
            diff = max(
                abs(base.prob_of(w) - other.prob_of(w)) for w in support
            )
            assert diff < 1e-10

    def test_csv_round_trip_text(self):
        wd = WorkDistribution(support=np.array([-1.0, 2.0]), probs=np.array([0.75, 0.25]))
        text = wd.to_csv_text()
        assert text.splitlines()[0] == "w,p"
        assert len(text.splitlines()) == 3


class TestMoments:
    def test_point_mass(self):
        wd = WorkDistribution.point_mass(-0.3)
        assert variance(wd) == 0.0
        assert f1_measure(wd) == 0.0

    def test_symmetric_two_point(self):
        wd = WorkDistribution(support=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5]))
        assert_allclose(variance(wd), 1.0)

    def test_weight_erasure_average(self):
        eps = 0.25
        w0, w1 = -(LN2 + np.log(1 - eps)), -(LN2 + np.log(eps))
        wd = WorkDistribution(support=np.array([w0, w1]), probs=np.array([1 - eps, eps]))
        assert_allclose(average_work(wd), -LN2 + binary_entropy(eps), rtol=1e-13)

    def test_weight_erasure_f1(self):
        eps = 0.25
        w0, w1 = -(LN2 + np.log(1 - eps)), -(LN2 + np.log(eps))
        wd = WorkDistribution(support=np.array([w0, w1]), probs=np.array([1 - eps, eps]))
        assert_allclose(f1_measure(wd), abs(binary_entropy(eps) + np.log(eps)), rtol=1e-12)

    def test_f1_asymmetric_support(self):
        wd = WorkDistribution(support=np.array([-1.0, 3.0]), probs=np.array([0.75, 0.25]))
        assert average_work(wd) == 0.0
        assert f1_measure(wd) == 3.0


class TestGeneralCost:
    def test_square_recovers_variance(self):
        wd = WorkDistribution(support=np.array([-0.5, 0.3, 1.2]), probs=np.array([0.2, 0.5, 0.3]))
        cost = CostFunction(evaluator=lambda x: x * x, tag="square")
        assert_allclose(general_cost(wd, cost), variance(wd), rtol=1e-14)

    def test_exponential_on_point_mass(self):
        cost = CostFunction(evaluator=lambda x: np.expm1(abs(x)), tag="exp")
        assert general_cost(WorkDistribution.point_mass(2.0), cost) == 0.0

    def test_window_cost_matches_f1(self):
        wd = WorkDistribution(support=np.array([-1.0, 3.0]), probs=np.array([0.75, 0.25]))
        sentinel = 1e300
        for c in (2.0, 3.5):
            window = CostFunction(evaluator=lambda x, c=c: 0.0 if abs(x) <= c else sentinel)
            blocked = general_cost(wd, window) > 0
            assert blocked == (f1_measure(wd) > c)

    def test_nonvanishing_at_zero_rejected(self):
        with pytest.raises(DomainError):
            CostFunction(evaluator=lambda x: x + 1.0)


class TestVarianceFloor:
    def test_zero_gamma_always_passes(self):
        wd = WorkDistribution.point_mass(-2.0)
        assert theorem4_check(wd, 0.0).passed

    def test_erasure_cell(self):
        from thermops.erasure import oscillator_average_work, oscillator_variance

        eps, gamma = 0.01, 0.05
        avg, var = oscillator_average_work(eps, gamma), oscillator_variance(eps, gamma)
        wd = WorkDistribution(  # surrogate two-point distribution with these moments
            support=np.array([avg - np.sqrt(var), avg + np.sqrt(var)]),
            probs=np.array([0.5, 0.5]),
        )
        assert theorem4_check(wd, gamma).passed

    def test_negative_point_mass_with_occupied_vacuum_fails(self):
        report = theorem4_check(WorkDistribution.point_mass(-1.0), 0.3)
        assert not report.passed

    def test_positive_average_rejected(self):
        with pytest.raises(PreconditionViolated):
            theorem4_check(WorkDistribution.point_mass(0.5), 0.1)

    def test_gamma_range(self):
        with pytest.raises(DomainError):
            theorem4_check(WorkDistribution.point_mass(-1.0), 1.5)
