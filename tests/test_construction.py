import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from thermops.batteries import average_work, ladder_work_distribution, work_distribution
from thermops.channels import (
    ThermalChannel,
    WitSubchannels,
    apply,
    extract_subchannels,
    random_gibbs_stochastic,
    validate,
)
from thermops.construction import (
    _power_chain,
    auto_battery_size,
    closed_form_average_work,
    extend_to_oscillator,
    formation_subchannels,
    theorem3_deterministic_work,
    truncation_tail,
    verify_extension,
)
from thermops.erasure import oscillator_erasure_subchannels
from thermops.errors import DimensionMismatch, DomainError, InvalidSubchannels, NonConvergentSeries
from thermops.experiments import random_wit_subchannels, thermalization_subchannels
from thermops.fileio import channel_from_text, channel_to_text
from thermops.spectra import DiagonalState, EnergySpectrum, gibbs_state

LN2 = np.log(2.0)


def qubit():
    return EnergySpectrum.trivial(2, "qubit")


class TestExtension:
    def test_erasure_extension_validates(self):
        sub = oscillator_erasure_subchannels(0.1)
        ch = extend_to_oscillator(sub, 40)
        rep = validate(ch)
        assert rep.max_stochasticity_residual < 1e-12
        assert rep.max_gibbs_residual < 1e-12

    def test_identity_wit_gives_identity_channel(self):
        sub = WitSubchannels(
            r00=np.eye(2), r01=np.zeros((2, 2)), r10=np.zeros((2, 2)), r11=np.eye(2),
            delta=0.8, beta=1.0, system=qubit(),
        )
        ch = extend_to_oscillator(sub, 6)
        assert np.array_equal(ch.matrix, np.eye(14))

    def test_formation_map_drops_battery_one_step(self):
        # r11 = 0 makes every interior column a pure one-step drop onto sigma.
        sigma = DiagonalState(np.array([0.75, 0.25]), qubit())
        sub = formation_subchannels(sigma, 1.0, np.log(1.5))
        ch = extend_to_oscillator(sub, 10)
        rho = DiagonalState(np.array([0.5, 0.5]), qubit())
        for k in (1, 5, 10):
            out = apply(ch, rho, DiagonalState.pure(k, ch.battery))
            expected = np.zeros(2 * 11)
            expected[0 * 11 + k - 1] = sigma.probs[0]
            expected[1 * 11 + k - 1] = sigma.probs[1]
            assert np.max(np.abs(out.probs - expected)) < 1e-15

    def test_invalid_subchannels_rejected(self):
        with pytest.raises(InvalidSubchannels):
            WitSubchannels(
                r00=np.eye(2), r01=np.eye(2), r10=np.zeros((2, 2)), r11=np.zeros((2, 2)),
                delta=0.5, beta=1.0, system=qubit(),
            )

    def test_gibbs_fixed_point_large_battery(self):
        sub = random_wit_subchannels(404, 0)
        ch = extend_to_oscillator(sub, 500)
        tau = np.kron(
            gibbs_state(ch.sys_in, ch.beta).probs, gibbs_state(ch.battery, ch.beta).probs
        )
        out = ch.matrix @ tau
        assert np.max(np.abs(out - tau) / tau) < 1e-10

    def test_minimal_battery(self):
        sub = oscillator_erasure_subchannels(0.2)
        report = verify_extension(extend_to_oscillator(sub, 2), sub)
        assert report.ok

    def test_vacuum_reset_map_eti_thresholds(self):
        # With r11 = 0 even the full window (top row included) is
        # translation-invariant above the vacuum; the vacuum row itself is not.
        from thermops.channels import check_eti

        ch = extend_to_oscillator(oscillator_erasure_subchannels(0.0), 16)
        at_vacuum = check_eti(ch, k_min=0)
        above = check_eti(ch, k_min=1)
        assert not at_vacuum.holds
        assert at_vacuum.worst is not None
        assert above.holds and above.max_violation == 0.0
        # The alternative window pairs band entries with vacuum-row entries
        # (shifts with k+n < k_min are allowed), so it reports a genuine
        # deviation here.
        assert check_eti(ch, k_min=1, convention="appendix").max_violation > 0.1


def random_wit(dim, seed):
    """Seeded valid wit operation on a `dim`-level system."""
    rng = np.random.default_rng(seed)
    sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, dim))), "sys")
    channel = random_gibbs_stochastic(
        sys, EnergySpectrum.wit(float(rng.uniform(0.8, 1.6))), 1.0, seed=seed, num_mixes=30
    )
    return WitSubchannels.from_channel(channel)


def masses_by_offset(wd, delta):
    """Work probabilities keyed by the battery offset w / delta."""
    out = {}
    for w, p in zip(wd.support, wd.probs):
        j = int(round(w / delta))
        out[j] = out.get(j, 0.0) + p
    return out


class TestLadderWorkDistribution:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_matches_dense_extension(self, dim, n):
        rng = np.random.default_rng([dim, n])
        for trial in range(3):
            sub = random_wit(dim, 100 * dim + trial)
            ladder = extend_to_oscillator(sub, n)
            ch = ThermalChannel(ladder.matrix, ladder.sys_in, ladder.sys_out, ladder.battery, ladder.beta)
            x = DiagonalState(rng.dirichlet(np.ones(dim)), sub.system)
            batteries = [
                DiagonalState.pure(0, ch.battery),
                DiagonalState.pure(n, ch.battery),
                DiagonalState.pure(n // 2 if n > 2 else 1, ch.battery),
                DiagonalState(rng.dirichlet(np.ones(n + 1)), ch.battery),
            ]
            for bat in batteries:
                dense = masses_by_offset(work_distribution(ch, x, bat), sub.delta)
                fast = masses_by_offset(ladder_work_distribution(sub, n, x, bat), sub.delta)
                assert set(fast) <= set(range(-1, n + 1))
                for j in set(dense) | set(fast):
                    assert abs(dense.get(j, 0.0) - fast.get(j, 0.0)) <= 1e-14

    def test_support_is_the_offset_ladder(self):
        sub = random_wit(3, 5)
        battery = EnergySpectrum.oscillator(10, sub.delta)
        x = DiagonalState(np.full(3, 1.0 / 3.0), sub.system)
        bat = DiagonalState(np.full(11, 1.0 / 11.0), battery)
        wd = ladder_work_distribution(sub, 10, x, bat)
        assert np.array_equal(wd.support, sub.delta * np.arange(-1, 11))

    def test_rejects_short_ladder_and_mismatched_states(self):
        sub = oscillator_erasure_subchannels(0.1)
        x = DiagonalState(np.full(2, 0.5), sub.system)
        one = EnergySpectrum.trivial(1)
        with pytest.raises(DomainError):
            ladder_work_distribution(sub, 0, x, DiagonalState.pure(0, one))
        ten = EnergySpectrum.oscillator(10, sub.delta)
        with pytest.raises(DimensionMismatch):
            ladder_work_distribution(sub, 8, x, DiagonalState.pure(1, ten))


class TestVerifyExtension:
    def test_all_audits_pass_on_random_extensions(self):
        for trial in range(5):
            sub = random_wit_subchannels(7, trial)
            ch = extend_to_oscillator(sub, 25)
            report = verify_extension(ch, sub)
            assert report.validation.ok
            assert report.eti.holds and report.eti.max_violation == 0.0
            assert report.blocks_ok
            assert report.tail < 1e-6

    def test_drop_blocks_equal_r10_bitwise(self):
        sub = random_wit_subchannels(8, 0)
        ch = extend_to_oscillator(sub, 20)
        for k in range(1, 21):
            assert np.array_equal(extract_subchannels(ch, k, k - 1), sub.r10)

    def test_corrupted_block_is_localized(self):
        sub = oscillator_erasure_subchannels(0.1)
        ch = extend_to_oscillator(sub, 10)
        m = ch.matrix.copy()
        r4 = m.reshape(2, 11, 2, 11)
        r4[0, 4, 0, 5] += 1e-3  # tamper with the (5 -> 4) drop block
        bad = ThermalChannel(m, ch.sys_in, ch.sys_out, ch.battery, ch.beta)
        report = verify_extension(bad)
        assert not report.blocks_ok
        assert report.block_first_mismatch == 5
        assert_allclose(report.block_max_deviation, 1e-3, rtol=1e-9)

    def test_ladder_supplies_its_own_tail(self):
        ch = extend_to_oscillator(oscillator_erasure_subchannels(0.1), 20)
        own = truncation_tail(ch.sub, 20)
        assert verify_extension(ch).tail == own
        # Equal blocks built anew are the same operation.
        assert verify_extension(ch, oscillator_erasure_subchannels(0.1)).tail == own

    def test_foreign_sub_rejected_on_ladder(self):
        ch = extend_to_oscillator(oscillator_erasure_subchannels(0.1), 20)
        with pytest.raises(DomainError):
            verify_extension(ch, oscillator_erasure_subchannels(0.3))

    def test_foreign_sub_rejected_on_plain_channel(self):
        sub = oscillator_erasure_subchannels(0.1)
        ch = extend_to_oscillator(sub, 5)
        plain = ThermalChannel(ch.matrix, ch.sys_in, ch.sys_out, ch.battery, ch.beta)
        with pytest.raises(DomainError):
            verify_extension(plain, oscillator_erasure_subchannels(0.3))
        # One last-bit change in any of the three blocks compared is refused.
        for name in ("r00", "r10", "r11"):
            block = getattr(sub, name).copy()
            block[0, 0] = np.nextafter(block[0, 0], 1.0)
            with pytest.raises(DomainError):
                verify_extension(plain, dataclasses.replace(sub, **{name: block}))
        # The channel's own blocks pass, also after a round trip through a channel file.
        own = truncation_tail(sub, 5)
        assert verify_extension(plain, oscillator_erasure_subchannels(0.1)).tail == own
        assert verify_extension(channel_from_text(channel_to_text(plain)), sub).tail == own

    def test_sub_dimension_checked_on_plain_channel(self):
        ch = extend_to_oscillator(random_wit_subchannels(8, 0), 10)
        plain = ThermalChannel(ch.matrix, ch.sys_in, ch.sys_out, ch.battery, ch.beta)
        with pytest.raises(DimensionMismatch):
            verify_extension(plain, oscillator_erasure_subchannels(0.1))


def block_by_block_extension(sub, n):
    """Reference assembly of the completed ladder, one d x d block at a time."""
    d, nb = sub.dim, n + 1
    powers = [np.eye(d)]
    for _ in range(n):
        powers.append(powers[-1] @ sub.r01)
    a_blocks = [sub.r00 @ powers[i] for i in range(n)]
    c_blocks = [a_blocks[i] @ sub.r11 for i in range(n)]
    t_blocks = [powers[j] @ sub.r11 for j in range(nb)]
    r4 = np.zeros((d, nb, d, nb))
    for i in range(n):
        r4[:, i, :, 0] = a_blocks[i]
    r4[:, n, :, 0] = powers[n]
    for k in range(1, n):
        r4[:, k - 1, :, k] = sub.r10
        for i in range(n - k):
            r4[:, k + i, :, k] = c_blocks[i]
        r4[:, n, :, k] = t_blocks[n - k]
    r4[:, n - 1, :, n] = sub.r10
    r4[:, n, :, n] = sub.r11
    return r4.reshape(d * nb, d * nb)


class TestBandAssembly:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_matches_block_by_block_assembly(self, dim, n):
        sub = random_wit(dim, 12)
        assert_array_equal(extend_to_oscillator(sub, n).matrix, block_by_block_extension(sub, n))

    def test_erasure_blocks_with_zeros(self):
        sub = oscillator_erasure_subchannels(0.0)
        assert_array_equal(extend_to_oscillator(sub, 7).matrix, block_by_block_extension(sub, 7))


class TestClosedFormAverageWork:
    def test_vanishing_r11_gives_minus_delta(self):
        sigma = DiagonalState(np.array([0.6, 0.4]), qubit())
        sub = formation_subchannels(sigma, 1.0, 0.7)
        x = DiagonalState(np.array([0.3, 0.7]), qubit())
        assert_allclose(closed_form_average_work(sub, x), -0.7, rtol=1e-14)

    def test_erasure_blocks_give_minus_delta(self):
        sub = oscillator_erasure_subchannels(0.2)
        x = DiagonalState(np.array([0.5, 0.5]), qubit())
        assert_allclose(closed_form_average_work(sub, x), -sub.delta, rtol=1e-14)

    def test_matches_direct_simulation(self):
        sub = thermalization_subchannels(1.0, LN2)
        ch = extend_to_oscillator(sub, 60)
        sys = gibbs_state(sub.system, 1.0)
        wd = work_distribution(ch, sys, DiagonalState.pure(1, ch.battery))
        assert abs(closed_form_average_work(sub, sys) - average_work(wd)) < 1e-10

    def test_unit_spectral_radius_rejected(self):
        # delta = 0 swap map has r01 = identity.
        sub = WitSubchannels(
            r00=np.zeros((2, 2)), r01=np.eye(2), r10=np.eye(2), r11=np.zeros((2, 2)),
            delta=0.0, beta=1.0, system=qubit(),
        )
        x = DiagonalState(np.array([0.5, 0.5]), qubit())
        with pytest.raises(NonConvergentSeries):
            closed_form_average_work(sub, x)


class TestBatterySizing:
    def test_auto_size_controls_tail(self):
        for eps in (0.0, 0.2, 0.4, 0.499):  # 0.499 needs N = 13,830: no silent cap
            sub = oscillator_erasure_subchannels(eps)
            n = auto_battery_size(sub)
            assert truncation_tail(sub, n) <= 1e-12
            assert truncation_tail(sub, n - 1) > 1e-12 or n == 2

    def test_unit_spectral_radius_has_no_size(self):
        sub = WitSubchannels(
            r00=np.zeros((2, 2)), r01=np.eye(2), r10=np.eye(2), r11=np.zeros((2, 2)),
            delta=0.0, beta=1.0, system=qubit(),
        )
        with pytest.raises(NonConvergentSeries):
            auto_battery_size(sub)


class TestTheorem3:
    def test_erasure_formation(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState(np.array([0.75, 0.25]), qubit())
        ch, delta = theorem3_deterministic_work(tau, sigma, 1.0, 20)
        assert abs(delta - np.log(1.5)) < 1e-12
        out = apply(ch, tau, DiagonalState.pure(7, ch.battery))
        expected = np.zeros(2 * 21)
        expected[6] = 0.75
        expected[21 + 6] = 0.25
        assert np.max(np.abs(out.probs - expected)) < 1e-12
        wd = work_distribution(ch, tau, DiagonalState.pure(7, ch.battery))
        assert_allclose(wd.support, [-delta])
        assert_allclose(wd.probs, [1.0])

    def test_trivial_target_needs_no_gap(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        ch, delta = theorem3_deterministic_work(tau, tau, 1.0, 8)
        assert delta == 0.0
        out = apply(ch, tau, DiagonalState.pure(3, ch.battery))
        expected = np.zeros(2 * 9)
        expected[2] = 0.5
        expected[9 + 2] = 0.5
        assert np.max(np.abs(out.probs - expected)) < 1e-15

    def test_pure_target_costs_ln2(self):
        tau = DiagonalState(np.array([0.5, 0.5]), qubit())
        sigma = DiagonalState.pure(0, qubit())
        ch, delta = theorem3_deterministic_work(tau, sigma, 1.0, 16)
        assert abs(delta - LN2) < 1e-12
        wd = work_distribution(ch, tau, DiagonalState.pure(5, ch.battery))
        assert_allclose(wd.support, [-LN2])


def _sizing_matrices():
    out = {f"erasure r01 eps={eps}": oscillator_erasure_subchannels(eps).r01 for eps in (0.1, 0.48, 0.499)}
    for seed in range(10):
        out[f"wit r01 seed={seed}"] = random_wit(2 + seed % 3, 300 + seed).r01
    return out


class TestSizingPowers:
    @pytest.mark.parametrize("name, m", list(_sizing_matrices().items()))
    def test_bit_equal_to_matrix_power(self, name, m):
        power = _power_chain(m)
        got = np.stack([power(n) for n in range(4097)])
        want = np.stack([np.linalg.matrix_power(m, n) for n in range(4097)])
        assert got.tobytes() == want.tobytes()

    def test_powers_in_any_order(self):
        m = random_wit(3, 7).r01
        power = _power_chain(m)
        for n in (4096, 3, 1000, 2, 17, 0, 4095, 1):
            assert power(n).tobytes() == np.linalg.matrix_power(m, n).tobytes()

    @pytest.mark.parametrize("eps, size", [(0.48, 705), (0.495, 2777), (0.499, 13830)])
    def test_erasure_sizes(self, eps, size):
        sub = oscillator_erasure_subchannels(eps)
        assert auto_battery_size(sub) == size
        assert truncation_tail(sub, size) <= 1e-12 < truncation_tail(sub, size - 1)


def doubling_battery_size(sub, tol):
    """Smallest N >= 2 with a small tail, by doubling from N = 2 and bisecting."""
    lo, hi = 1, 2
    while truncation_tail(sub, hi) > tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncation_tail(sub, mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def jordan_wit():
    """Valid wit operation whose r01 = [[0.1, 0.3], [0, 0.1]] is a Jordan-like block.

    ||r01^N||_1 = 0.1^N (1 + 3N) lies far above rho^N = 0.1^N, so the
    spectral-radius guess ceil(ln tol / ln rho) falls short of the answer.
    """
    return WitSubchannels(
        r00=np.array([[0.0, 0.6], [0.9, 0.0]]),
        r01=np.array([[0.1, 0.3], [0.0, 0.1]]),
        r10=np.array([[0.8, 0.0], [0.0, 0.2]]),
        r11=np.array([[0.2, 0.0], [0.0, 0.8]]),
        delta=float(np.log(2.0)),
        beta=1.0,
        system=EnergySpectrum((0.0, 0.0)),
    )


class TestSizingFromSpectralRadius:
    @pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-15])
    def test_erasure_blocks_match_doubling_search(self, tol):
        for eps in np.linspace(0.0, 0.4995, 67):
            sub = oscillator_erasure_subchannels(float(eps))
            assert auto_battery_size(sub, tol) == doubling_battery_size(sub, tol), eps

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-15])
    def test_seeded_operations_match_doubling_search(self, seed, tol):
        for trial in range(200):
            sub = random_wit_subchannels(seed, trial)
            assert auto_battery_size(sub, tol) == doubling_battery_size(sub, tol), trial

    def test_zero_spectral_radius(self):
        sub = WitSubchannels(
            r00=np.eye(2), r01=np.zeros((2, 2)), r10=np.zeros((2, 2)), r11=np.eye(2),
            delta=1.0, beta=1.0, system=qubit(),
        )
        assert auto_battery_size(sub) == 2 == doubling_battery_size(sub, 1e-12)

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-15])
    def test_guess_short_of_answer(self, tol):
        sub = jordan_wit()
        guess = int(np.ceil(np.log(tol) / np.log(0.1)))
        size = auto_battery_size(sub, tol)
        assert size == doubling_battery_size(sub, tol) > guess
        assert truncation_tail(sub, size) <= tol < truncation_tail(sub, size - 1)

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_power_chain_bits_for_every_dim(self, dim):
        m = np.random.default_rng(dim).uniform(size=(dim, dim))
        m /= 1.0005 * m.sum(axis=0)
        power = _power_chain(m)
        for n in (*range(70), 705, 2777, 4097, 13829, 13830):
            assert power(n).tobytes() == np.linalg.matrix_power(m, n).tobytes(), n

    def test_two_probes_on_erasure_blocks(self, monkeypatch):
        import thermops.construction as construction

        probes = []
        norm = construction._one_norm
        monkeypatch.setattr(construction, "_one_norm", lambda m: probes.append(1) or norm(m))
        for eps in (0.1, 0.48, 0.495, 0.499):
            probes.clear()
            auto_battery_size(oscillator_erasure_subchannels(eps))
            assert len(probes) == 2, eps
