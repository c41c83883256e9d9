import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from thermops.errors import DomainError, OverflowRisk, SupportMismatch, ZeroProbability
from thermops.spectra import (
    DiagonalState,
    EnergySpectrum,
    binary_entropy,
    d_max,
    fine_grained_free_energy,
    free_energy,
    gibbs_state,
    partition_function,
)

LN2 = np.log(2.0)


def qubit():
    return EnergySpectrum.trivial(2, "qubit")


class TestPartitionFunction:
    def test_degenerate_qubit(self):
        assert partition_function(qubit(), 1.0) == 2.0

    def test_two_levels(self):
        sp = EnergySpectrum((0.0, LN2))
        assert_allclose(partition_function(sp, 1.0), 1.5, rtol=1e-15)

    def test_oscillator_geometric_limit(self):
        # Z(N) = sum 2^-k -> 2, checked against partial sums.
        prev = 0.0
        for n in (5, 10, 20, 60):
            z = partition_function(EnergySpectrum.oscillator(n, LN2), 1.0)
            assert_allclose(z, 2.0 - 2.0 ** (-n), rtol=1e-14)
            assert z > prev
            prev = z
        assert abs(prev - 2.0) < 1e-12

    def test_overflow_guard(self):
        with pytest.raises(OverflowRisk):
            partition_function(EnergySpectrum((0.0, 800.0)), 1.0)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            partition_function(qubit(), 0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_beta_must_be_finite(self, beta):
        # Degenerate levels make beta * |E| zero, so only the beta check can refuse.
        with pytest.raises(DomainError):
            partition_function(qubit(), beta)
        with pytest.raises(DomainError):
            gibbs_state(qubit(), beta)


class TestGibbsState:
    def test_degenerate_qubit(self):
        assert_allclose(gibbs_state(qubit(), 1.0).probs, [0.5, 0.5])

    def test_two_levels(self):
        g = gibbs_state(EnergySpectrum((0.0, LN2)), 1.0)
        assert_allclose(g.probs, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_oscillator_halving(self):
        g = gibbs_state(EnergySpectrum.oscillator(20, LN2), 1.0)
        weights = 2.0 ** -np.arange(21)
        assert_allclose(g.probs, weights / weights.sum(), rtol=1e-13)

    def test_sorted_when_levels_sorted(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sp = EnergySpectrum(tuple(np.sort(rng.uniform(0, 3, 6))))
            g = gibbs_state(sp, 1.3)
            assert np.all(np.diff(g.probs) <= 1e-15)


class TestFreeEnergy:
    def test_maximally_mixed(self):
        state = DiagonalState(np.array([0.5, 0.5]), qubit())
        assert_allclose(free_energy(state, 1.0), -LN2, rtol=1e-15)

    def test_pure_ground(self):
        state = DiagonalState.pure(0, qubit())
        assert free_energy(state, 1.0) == 0.0

    def test_gibbs_gives_minus_log_z(self):
        sp = EnergySpectrum((0.0, LN2))
        g = gibbs_state(sp, 1.0)
        assert_allclose(free_energy(g, 1.0), -np.log(1.5), rtol=1e-13)

    def test_gibbs_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            sp = EnergySpectrum(tuple(rng.uniform(-1, 2, 5)))
            beta = float(rng.uniform(0.2, 3.0))
            lhs = free_energy(gibbs_state(sp, beta), beta)
            rhs = -np.log(partition_function(sp, beta)) / beta
            assert abs(lhs - rhs) < 1e-12


class TestFineGrained:
    def test_uniform_qubit(self):
        state = DiagonalState(np.array([0.5, 0.5]), qubit())
        assert_allclose(fine_grained_free_energy(state, 1.0, 0), -LN2)

    def test_gibbs_index_independent(self):
        sp = EnergySpectrum((0.0, 0.4, 1.7))
        g = gibbs_state(sp, 1.0)
        vals = [fine_grained_free_energy(g, 1.0, i) for i in range(3)]
        expected = -np.log(partition_function(sp, 1.0))
        assert_allclose(vals, expected, rtol=1e-13)

    def test_direct_value(self):
        state = DiagonalState(np.array([0.9, 0.1]), qubit())
        assert_allclose(fine_grained_free_energy(state, 1.0, 1), np.log(0.1), rtol=1e-14)

    def test_zero_probability_rejected(self):
        state = DiagonalState.pure(0, qubit())
        with pytest.raises(ZeroProbability):
            fine_grained_free_energy(state, 1.0, 1)

    def test_average_is_free_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            sp = EnergySpectrum(tuple(rng.uniform(0, 2, d)))
            p = rng.dirichlet(np.ones(d))
            state = DiagonalState(p, sp)
            beta = float(rng.uniform(0.3, 2.5))
            avg = sum(
                p[i] * fine_grained_free_energy(state, beta, i) for i in range(d) if p[i] > 0
            )
            assert abs(avg - free_energy(state, beta)) < 1e-12


class TestDmax:
    def test_self_is_zero(self):
        tau = gibbs_state(EnergySpectrum((0.0, 1.0)), 1.0)
        assert d_max(tau, tau) == 0.0

    def test_pure_vs_uniform(self):
        uniform = DiagonalState(np.array([0.5, 0.5]), qubit())
        pure = DiagonalState.pure(0, qubit())
        assert_allclose(d_max(pure, uniform), LN2, rtol=1e-15)

    def test_erasure_output_vs_uniform(self):
        uniform = DiagonalState(np.array([0.5, 0.5]), qubit())
        rho = DiagonalState(np.array([0.75, 0.25]), qubit())
        assert_allclose(d_max(rho, uniform), np.log(1.5), rtol=1e-15)

    def test_support_mismatch(self):
        p = DiagonalState(np.array([0.5, 0.5]), qubit())
        q = DiagonalState.pure(0, qubit())
        with pytest.raises(SupportMismatch):
            d_max(p, q)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5))
    def test_nonnegative_vs_gibbs(self, raw):
        p = np.asarray(raw) / np.sum(raw)
        sp = EnergySpectrum.trivial(len(p))
        tau = gibbs_state(sp, 1.0)
        val = d_max(DiagonalState(p, sp), tau)
        assert val >= -1e-15
        if np.max(np.abs(p - tau.probs)) > 1e-12:
            assert val > 0.0


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert_allclose(binary_entropy(0.5), LN2, rtol=1e-15)

    def test_symmetry(self):
        for x in (0.1, 0.25, 0.4):
            assert_allclose(binary_entropy(x), binary_entropy(1 - x), rtol=1e-14)


class TestStateValidation:
    def test_length_mismatch(self):
        with pytest.raises(Exception):
            DiagonalState(np.array([1.0]), qubit())

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            DiagonalState(np.array([1.1, -0.1]), qubit())

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0]])
    def test_non_finite_probability(self, probs):
        with pytest.raises(DomainError):
            DiagonalState(np.array(probs), qubit())

    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            DiagonalState(np.array([0.6, 0.6]), qubit())

    def test_spectrum_needs_levels(self):
        with pytest.raises(ValueError):
            EnergySpectrum(())


class TestSpectrumStorage:
    def test_signed_zeros_are_equal_with_equal_hashes(self):
        a, b = EnergySpectrum((0.0, 1.0)), EnergySpectrum((-0.0, 1.0))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_label_ignored(self):
        a, b = EnergySpectrum((0.0, 0.5), "sys"), EnergySpectrum((0.0, 0.5), "other")
        assert a == b and hash(a) == hash(b)
        assert EnergySpectrum((0.0, 0.5)) != EnergySpectrum((0.0, 0.5, 1.0))
        assert EnergySpectrum((0.0, 0.5)) != EnergySpectrum((0.0, 0.25))
        assert EnergySpectrum((0.0, 0.5)) != (0.0, 0.5)

    def test_array_read_only_and_shared(self):
        sp = EnergySpectrum.oscillator(10, 0.3)
        first, second = sp.array, sp.array
        assert not first.flags.writeable
        assert np.shares_memory(first, second)
        with pytest.raises(ValueError):
            first[0] = 1.0
        frozen = np.arange(3.0)
        frozen.setflags(write=False)
        assert EnergySpectrum(frozen).array is frozen

    def test_caller_array_is_copied(self):
        levels = np.array([0.0, 0.5])
        sp = EnergySpectrum(levels)
        levels[1] = 9.0
        assert sp.levels == (0.0, 0.5)

    def test_levels_tuple_of_python_floats(self):
        sp = EnergySpectrum(np.array([0.0, 0.25, 1.5]), "sys")
        assert sp.levels == (0.0, 0.25, 1.5)
        assert all(type(x) is float for x in sp.levels)
        assert len(sp) == 3

    def test_immutable(self):
        sp = EnergySpectrum((0.0, 1.0))
        with pytest.raises(AttributeError):
            sp.label = "x"
        with pytest.raises(AttributeError):
            sp.array = np.zeros(2)

    @pytest.mark.parametrize("levels", [(), (0.0, np.nan), (np.inf,), (0.0, -np.inf), [[0.0, 1.0]]])
    def test_bad_levels_refused(self, levels):
        with pytest.raises(DomainError):
            EnergySpectrum(levels)

    @pytest.mark.parametrize("n, delta", [(1, 0.1), (40, 0.6931471805599453), (13830, 0.6911470), (705, 1 / 3)])
    def test_oscillator_levels_are_k_delta(self, n, delta):
        sp = EnergySpectrum.oscillator(n, delta)
        assert sp.array.tobytes() == np.array([k * delta for k in range(n + 1)]).tobytes()

    def test_pickle_round_trip(self):
        import pickle

        sp = EnergySpectrum((0.0, 0.4, 1.1), "sys")
        back = pickle.loads(pickle.dumps(sp))
        assert back == sp and back.label == "sys" and not back.array.flags.writeable
