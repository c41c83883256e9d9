import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from referee import FOUR_ULP, relative_error
from referee import conditional_band as referee_band

from thermops.bounds import (
    battery_mean_energy,
    conditional_jarzynski,
    conditional_jarzynski_band,
    corollary1_correction,
    eta_derivative,
    gaussian_battery_profile,
    jarzynski_average,
    theorem1_certify,
    theorem2_bound,
)
from thermops.channels import LadderChannel, ThermalChannel, identity_channel, random_gibbs_stochastic
from thermops.construction import extend_to_oscillator
from thermops.errors import DomainError, ETIViolated, IndexOutOfRange
from thermops.experiments import (
    brute_force_conditional_average,
    random_wit_subchannels,
    thermalization_subchannels,
)
from thermops.spectra import (
    DiagonalState,
    EnergySpectrum,
    fine_grained_free_energy,
    gibbs_state,
    logsumexp,
    partition_function,
)

LN2 = np.log(2.0)


def literal_conditional_average(channel, sys, k):
    """Textbook route: explicit p(s) e^{-beta f_s} on a full-support state."""
    total = 0.0
    r4 = channel.blocks()
    eps = channel.battery.array
    for s in range(channel.d_in):
        f_s = fine_grained_free_energy(sys, channel.beta, s)
        for sp in range(channel.d_out):
            for kp in range(channel.n_battery):
                w = eps[kp] - eps[k]
                total += sys.probs[s] * r4[sp, kp, s, k] * np.exp(channel.beta * (w - f_s))
    return total


class TestConditionalJarzynski:
    def test_identity_channel_gives_z(self):
        sysp = EnergySpectrum((0.0, 0.4, 1.1), "sys")
        ch = identity_channel(sysp, EnergySpectrum.oscillator(6, 0.9), 1.3)
        state = DiagonalState(np.array([0.5, 0.3, 0.2]), sysp)
        z = partition_function(sysp, 1.3)
        for k in (0, 3, 6):
            assert abs(conditional_jarzynski(ch, state, k) - z) < 1e-12 * z

    def test_matches_literal_definition_on_full_support(self):
        sub = random_wit_subchannels(55, 1)
        ch = extend_to_oscillator(sub, 12)
        rng = np.random.default_rng(55)
        state = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
        for k in (0, 1, 5, 12):
            a = conditional_jarzynski(ch, state, k)
            b = literal_conditional_average(ch, state, k)
            assert abs(a - b) < 1e-11 * max(1.0, abs(b))

    def test_state_independence(self):
        sub = random_wit_subchannels(56, 2)
        ch = extend_to_oscillator(sub, 10)
        rng = np.random.default_rng(56)
        vals = [
            conditional_jarzynski(ch, DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system), 4)
            for _ in range(3)
        ]
        assert np.ptp(vals) < 1e-13

    def test_matches_brute_force_oracle(self):
        sub = random_wit_subchannels(57, 3)
        ch = extend_to_oscillator(sub, 14)
        state = gibbs_state(sub.system, 1.0)
        for k in range(0, 15, 3):
            a = conditional_jarzynski(ch, state, k)
            b = brute_force_conditional_average(ch, k)
            assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def per_column_log_sum_exp(channel, k):
    """Reference conditional average: one logsumexp over column k's terms in
    (s', k', s) order."""
    col = channel.blocks()[:, :, :, k]
    eps = channel.battery.array
    with np.errstate(divide="ignore"):
        logr = np.log(col, out=np.full_like(col, -np.inf), where=col > 0)
    beta = channel.beta
    terms = (
        logr
        + beta * (eps[None, :, None] - eps[k])
        - beta * channel.sys_in.array[None, None, :]
    )
    return float(np.exp(logsumexp(terms)))


def _band_channels():
    for trial in (0, 3):  # a three-level and a two-level system
        sub = random_wit_subchannels(3, trial)
        yield f"ladder d={sub.dim}", extend_to_oscillator(sub, 2 * 64 + 20)
    # A sparse channel: most columns hold a few nonzero entries.
    sysp = EnergySpectrum((0.0, 0.4, 1.1), "sys")
    yield "sparse", random_gibbs_stochastic(sysp, EnergySpectrum.oscillator(30, 0.7), 0.9, seed=8, num_mixes=20)


class TestConditionalBand:
    @pytest.mark.parametrize("name, channel", list(_band_channels()))
    def test_matches_per_level_evaluations_bitwise(self, name, channel):
        ks = np.arange(channel.n_battery)
        band = conditional_jarzynski_band(channel, ks)
        state = gibbs_state(channel.sys_in, channel.beta)
        assert_array_equal(band, [conditional_jarzynski(channel, state, k) for k in ks])
        per_column = [per_column_log_sum_exp(channel, k) for k in ks]
        if isinstance(channel, LadderChannel):
            # A ladder's band comes from its wit blocks, so the 50-digit sum pins it.
            assert_allclose(band, per_column, rtol=1e-12, atol=0)
            exact = referee_band(channel.sub, channel.num_quanta)
            assert max(relative_error(a, b) for a, b in zip(band, exact)) <= FOUR_ULP
        else:
            assert_array_equal(band, per_column)

    @pytest.mark.parametrize("name, channel", list(_band_channels()))
    def test_matches_brute_force_oracle(self, name, channel):
        ks = np.arange(0, channel.n_battery, 9)
        band = conditional_jarzynski_band(channel, ks)
        oracle = [brute_force_conditional_average(channel, k) for k in ks]
        assert_allclose(band, oracle, rtol=1e-12)

    def test_levels_in_any_order(self):
        _, channel = next(_band_channels())
        ks = np.array([5, 0, 5, channel.n_battery - 1, 2])
        every = conditional_jarzynski_band(channel, np.arange(channel.n_battery))
        assert_array_equal(conditional_jarzynski_band(channel, ks), every[ks])
        assert conditional_jarzynski_band(channel, []).shape == (0,)

    def test_level_out_of_range(self):
        _, channel = next(_band_channels())
        with pytest.raises(IndexOutOfRange):
            conditional_jarzynski_band(channel, [0, channel.n_battery])

    def test_jarzynski_average_sums_level_by_level(self):
        _, channel = next(_band_channels())
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(channel.n_battery)) * (rng.uniform(size=channel.n_battery) < 0.5)
        bat = DiagonalState(p / p.sum(), channel.battery)
        state = gibbs_state(channel.sys_in, channel.beta)
        want = sum(q * conditional_jarzynski(channel, state, k) for k, q in enumerate(bat.probs) if q > 0)
        assert jarzynski_average(channel, state, bat) == want


class TestTheorem1:
    def test_identity_channel_passes_at_threshold_zero(self):
        sysp = EnergySpectrum((0.0, 0.5), "sys")
        ch = identity_channel(sysp, EnergySpectrum.oscillator(12, 0.8), 1.0)
        state = DiagonalState(np.array([0.6, 0.4]), sysp)
        report = theorem1_certify(ch, state, k_min=0, band_buffer=2)
        assert report.passed
        assert report.worst_slack > 0.0

    def test_random_extensions_pass(self):
        for trial in range(6):
            sub = random_wit_subchannels(58, trial)
            ch = extend_to_oscillator(sub, 30)
            rng = np.random.default_rng(trial)
            state = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
            assert theorem1_certify(ch, state, k_min=1, band_buffer=5).passed

    def test_thermal_input_family_form(self):
        # For a Gibbs input the bound reads <e^{beta w}>_k <= (Z'/Z)(1 + e^{-beta delta_k}).
        sub = random_wit_subchannels(59, 0)
        ch = extend_to_oscillator(sub, 25)
        tau = gibbs_state(sub.system, ch.beta)
        z = partition_function(sub.system, ch.beta)
        delta = ch.battery.uniform_spacing()
        for k in (1, 5, 10):
            lhs_over_z = conditional_jarzynski(ch, tau, k) / z
            rhs = (z / z) * (1.0 + np.exp(-ch.beta * delta * k))
            assert lhs_over_z <= rhs + 1e-10

    def test_eti_precondition_enforced(self):
        sub = random_wit_subchannels(60, 0)
        ch = extend_to_oscillator(sub, 10)
        m = ch.matrix.copy()
        r4 = m.reshape(sub.dim, 11, sub.dim, 11)
        r4[:, 3, :, 4] *= 0.9  # interior drop block no longer matches its band
        bad = ThermalChannel(m, ch.sys_in, ch.sys_out, ch.battery, ch.beta)
        state = gibbs_state(sub.system, 1.0)
        with pytest.raises(ETIViolated):
            theorem1_certify(bad, state, k_min=1)


class TestTheorem2:
    def test_identity_channel(self):
        sysp = EnergySpectrum((0.0, 0.5), "sys")
        ch = identity_channel(sysp, EnergySpectrum.oscillator(10, 0.9), 1.0)
        state = DiagonalState(np.array([0.7, 0.3]), sysp)
        bat = DiagonalState.pure(4, ch.battery)
        report = theorem2_bound(ch, state, bat, k_min=0)
        assert report.avg_work == 0.0
        assert abs(report.delta_F) < 1e-14
        assert report.slack >= -1e-12
        assert_allclose(report.slack, report.A_term + report.B_term_appendix, atol=1e-14)

    def test_battery_far_above_vacuum(self):
        sub = random_wit_subchannels(61, 0)
        n = 40
        ch = extend_to_oscillator(sub, n)
        state = gibbs_state(sub.system, 1.0)
        k_star = 25
        bat_probs = np.zeros(n + 1)
        bat_probs[k_star : k_star + 5] = 0.2
        bat = DiagonalState(bat_probs, ch.battery)
        report = theorem2_bound(ch, state, bat, k_min=1)
        assert report.A_term == 0.0
        delta = ch.battery.uniform_spacing()
        eta_s = partition_function(sub.system, 1.0) * np.exp(np.max(sub.system.array))
        cap = np.log1p(eta_s * np.exp(-delta * k_star)) / 1.0
        assert report.B_term_appendix <= cap + 1e-12
        assert report.slack >= -1e-10

    def test_thermalization_extension_has_positive_slack(self):
        sub = thermalization_subchannels(1.0, LN2)
        ch = extend_to_oscillator(sub, 40)
        sys = gibbs_state(sub.system, 1.0)
        bat = DiagonalState.pure(5, ch.battery)
        report = theorem2_bound(ch, sys, bat, k_min=1)
        assert report.slack > 0.0
        # The wit-level violation is cured: interior average work is negative.
        assert report.avg_work < 0.0

    def test_b_variants_ordering(self):
        # eta_S >= 1 for non-negative spectra, so the appendix variant dominates.
        sub = random_wit_subchannels(62, 1)
        ch = extend_to_oscillator(sub, 30)
        rng = np.random.default_rng(62)
        state = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
        bat = DiagonalState(rng.dirichlet(np.ones(31)), ch.battery)
        report = theorem2_bound(ch, state, bat, k_min=1)
        assert report.B_term_appendix >= report.B_term_main - 1e-15


class TestEtaDerivative:
    def test_single_level_battery(self):
        bat = EnergySpectrum((0.7,), "single")
        assert eta_derivative(bat, 1.3, 0) == 0.0

    def test_vacuum_level_identity(self):
        # eta_0 = Z_W, so the derivative is -Z_W <E>_beta.
        bat = EnergySpectrum.oscillator(40, LN2)
        z = partition_function(bat, 1.0)
        expected = -z * battery_mean_energy(bat, 1.0)
        assert_allclose(eta_derivative(bat, 1.0, 0), expected, rtol=1e-13)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(63)
        h = 1e-5
        for _ in range(20):
            delta = float(rng.uniform(0.3, 1.5))
            n = int(rng.integers(4, 25))
            beta = float(rng.uniform(0.5, 2.0))
            k = int(rng.integers(0, n + 1))
            bat = EnergySpectrum.oscillator(n, delta)
            analytic = eta_derivative(bat, beta, k)
            eta = lambda b: partition_function(bat, b) * np.exp(b * bat.levels[k])
            fd = (eta(beta + h) - eta(beta - h)) / (2 * h)
            assert abs(analytic - fd) < 1e-6 * max(abs(analytic), abs(fd))


class TestCorollary1:
    def test_pure_exponential_tail_when_nothing_below_cutoff(self):
        bat_sp = EnergySpectrum.oscillator(100, 0.5)
        probs = np.zeros(101)
        probs[80:] = 1.0 / 21.0
        bat = DiagonalState(probs, bat_sp)
        eps_star, eps_min, beta = 10.0, 1.0, 1.0
        c = corollary1_correction(eps_star, bat, (2, 0.0), beta, 0.5, eps_min)
        assert_allclose(c, 2.0 * np.exp(-(eps_star - eps_min)), rtol=1e-13)

    def test_cutoff_must_exceed_threshold(self):
        bat = gaussian_battery_profile(100, 0.5, 20.0, 1.0)
        with pytest.raises(DomainError):
            corollary1_correction(1.0, bat, (2, 0.0), 1.0, 0.5, 2.0)

    def test_dominates_theorem2_correction(self):
        # beta(A + B_appendix) <= C for non-negative system spectra.
        for trial in range(6):
            sub = random_wit_subchannels(64, trial)
            n = 40
            ch = extend_to_oscillator(sub, n)
            rng = np.random.default_rng(640 + trial)
            state = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
            bat = DiagonalState(rng.dirichlet(np.ones(n + 1)), ch.battery)
            report = theorem2_bound(ch, state, bat, k_min=1)
            delta = ch.battery.uniform_spacing()
            d_s = sub.dim
            e_max = float(np.max(sub.system.array))
            for k_star in (5, 10, 20):
                c = corollary1_correction(
                    k_star * delta, bat, (d_s, e_max), ch.beta, delta, delta
                )
                lhs = ch.beta * (report.A_term + report.B_term_appendix)
                assert lhs <= c + 1e-9 * (1.0 + abs(c))

    def test_gaussian_profile_normalized_and_centered(self):
        bat = gaussian_battery_profile(600, 0.1, 30.0, 1.0)
        assert abs(bat.probs.sum() - 1.0) < 1e-12
        assert abs(bat.probs @ bat.spectrum.array - 30.0) < 0.05


class TestJarzynskiAverage:
    def test_identity_unconditional(self):
        sysp = EnergySpectrum((0.0, 0.8), "sys")
        ch = identity_channel(sysp, EnergySpectrum.oscillator(8, 0.6), 1.0)
        rng = np.random.default_rng(3)
        state = DiagonalState(rng.dirichlet(np.ones(2)), sysp)
        bat = DiagonalState(rng.dirichlet(np.ones(9)), ch.battery)
        z = partition_function(sysp, 1.0)
        assert abs(jarzynski_average(ch, state, bat) - z) < 1e-12 * z
