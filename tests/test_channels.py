import copy
import dataclasses
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from thermops import channels
from thermops.channels import (
    LadderChannel,
    ThermalChannel,
    WitSubchannels,
    apply,
    check_eti,
    extract_subchannels,
    identity_channel,
    random_gibbs_stochastic,
    validate,
)
from thermops.construction import extend_to_oscillator
from thermops.erasure import oscillator_erasure_subchannels
from thermops.errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    InvalidSubchannels,
    NonUniformBattery,
)
from thermops.experiments import random_wit_subchannels, thermalization_subchannels
from thermops.spectra import (
    DiagonalState,
    EnergySpectrum,
    gibbs_state,
    gibbs_weights,
    joint_spectrum,
    logsumexp,
)

LN2 = np.log(2.0)


def small_sys():
    return EnergySpectrum((0.0, 0.7), "sys")


def ladder(n=6, delta=0.9):
    return EnergySpectrum.oscillator(n, delta)


class TestValidate:
    def test_identity_is_valid_with_zero_residuals(self):
        ch = identity_channel(small_sys(), ladder(), 1.0)
        rep = validate(ch)
        assert rep.ok
        assert rep.max_stochasticity_residual == 0.0
        assert rep.max_gibbs_residual == 0.0

    def test_broken_column_rejected(self):
        ch = identity_channel(small_sys(), ladder(), 1.0)
        m = ch.matrix.copy()
        m[0, 0] = 0.9
        bad = type(ch)(m, ch.sys_in, ch.sys_out, ch.battery, ch.beta)
        rep = validate(bad)
        assert not rep.ok
        assert_allclose(rep.max_stochasticity_residual, 0.1, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity_channel(small_sys(), ladder(), 1.0).__class__(
                np.eye(3), small_sys(), small_sys(), ladder(), 1.0
            )


def per_row_gibbs_residuals(channel):
    """Reference Gibbs residuals, one logsumexp per output row."""
    m = channel.matrix
    lw_in = -channel.beta * channel.joint_in_spectrum().array
    lw_out = -channel.beta * channel.joint_out_spectrum().array
    with np.errstate(divide="ignore"):
        logm = np.log(m, out=np.full_like(m, -np.inf), where=m > 0)
    res = np.empty(m.shape[0])
    for i in range(m.shape[0]):
        s = logsumexp(logm[i] + lw_in)
        res[i] = abs(np.expm1(s - lw_out[i])) if np.isfinite(s) else 1.0
    return res


def _residual_channels():
    rng = np.random.default_rng(31)
    sys_in = EnergySpectrum((0.0, 0.3, 1.2), "in")
    sys_out = EnergySpectrum((0.0, 0.8), "out")
    m = rng.uniform(size=(2 * 7, 3 * 7)) * (rng.uniform(size=(14, 21)) < 0.6)
    m[[3, 9]] = 0.0  # two output levels that nothing reaches
    yield "sparse with zero rows", ThermalChannel(m, sys_in, sys_out, ladder(), 0.8)
    yield "random mixes", random_gibbs_stochastic(small_sys(), ladder(9), 1.3, seed=4, num_mixes=60)
    for trial in range(4):
        sub = random_wit_subchannels(2, trial)
        ch = extend_to_oscillator(sub, 40)
        # The dense kernel on the ladder's matrix; the block formulas are compared in TestLadderKernels.
        yield f"ladder d={sub.dim}", ThermalChannel(ch.matrix, ch.sys_in, ch.sys_out, ch.battery, ch.beta)


class TestValidateResiduals:
    @pytest.mark.parametrize("name, channel", list(_residual_channels()))
    def test_row_residuals_match_per_row_logsumexp(self, name, channel):
        assert_array_equal(validate(channel).row_residuals, per_row_gibbs_residuals(channel))

    def test_zero_row_has_residual_one(self):
        _, channel = next(_residual_channels())
        res = validate(channel).row_residuals
        assert res[3] == 1.0 and res[9] == 1.0
        assert np.all(res[[0, 1, 2, 4]] != 1.0)


class TestChannelStorage:
    def test_frozen_matrix_is_shared(self):
        m = np.eye(2 * 7)
        m.setflags(write=False)
        ch = ThermalChannel(m, small_sys(), small_sys(), ladder(), 1.0)
        assert np.shares_memory(ch.matrix, m)

    def test_writeable_matrix_is_copied(self):
        m = np.eye(2 * 7)
        ch = ThermalChannel(m, small_sys(), small_sys(), ladder(), 1.0)
        assert not np.shares_memory(ch.matrix, m)
        assert not ch.matrix.flags.writeable
        m[0, 0] = 0.5
        assert ch.matrix[0, 0] == 1.0


class TestApply:
    def test_identity_returns_input(self):
        ch = identity_channel(small_sys(), ladder(), 1.0)
        sys = DiagonalState(np.array([0.3, 0.7]), small_sys())
        bat = DiagonalState.pure(2, ladder())
        out = apply(ch, sys, bat)
        assert_allclose(out.probs, np.kron(sys.probs, bat.probs), atol=1e-15)

    def test_gibbs_is_fixed_point_of_random_channel(self):
        sys = small_sys()
        bat = ladder(5, 0.8)
        ch = random_gibbs_stochastic(sys, bat, 1.2, seed=7, num_mixes=40)
        tau = np.kron(gibbs_state(sys, 1.2).probs, gibbs_state(bat, 1.2).probs)
        out = apply(ch, joint=DiagonalState(tau, ch.joint_in_spectrum()))
        assert np.max(np.abs(out.probs - tau) / tau) < 1e-10

    def test_fixed_point_with_hamiltonian_switch(self):
        # Equal partition functions allow a simple thermalizing switch channel.
        sys_in = EnergySpectrum.trivial(2, "in")
        sys_out = EnergySpectrum((-np.log(1.5), LN2), "out")  # Z = 1.5 + 0.5 = 2
        bat = ladder(4, 1.0)
        beta = 1.0
        tau_out = np.kron(gibbs_state(sys_out, beta).probs, gibbs_state(bat, beta).probs)
        matrix = np.tile(tau_out[:, None], (1, 2 * 5))
        ch = identity_channel(sys_in, bat, beta).__class__(matrix, sys_in, sys_out, bat, beta)
        assert validate(ch).ok
        tau_in = np.kron(gibbs_state(sys_in, beta).probs, gibbs_state(bat, beta).probs)
        out = apply(ch, joint=DiagonalState(tau_in, ch.joint_in_spectrum()))
        assert np.max(np.abs(out.probs - tau_out)) < 1e-12

    def test_joint_input_accepted(self):
        ch = identity_channel(small_sys(), ladder(), 1.0)
        joint = DiagonalState(
            np.full(ch.matrix.shape[1], 1.0 / ch.matrix.shape[1]), ch.joint_in_spectrum()
        )
        out = apply(ch, joint=joint)
        assert_allclose(out.probs.sum(), 1.0, atol=1e-14)


class TestETI:
    def test_identity_holds_everywhere(self):
        ch = identity_channel(small_sys(), ladder(), 1.0)
        rep = check_eti(ch, k_min=0)
        assert rep.holds
        assert rep.max_violation == 0.0
        assert check_eti(ch, k_min=0, convention="appendix").max_violation == 0.0

    def test_monotone_in_threshold(self):
        ch = random_gibbs_stochastic(small_sys(), ladder(5, 0.8), 1.0, seed=3, num_mixes=35)
        violations = [check_eti(ch, k).max_violation for k in range(5)]
        assert all(v1 >= v2 - 1e-15 for v1, v2 in zip(violations, violations[1:]))

    def test_nonuniform_battery_rejected(self):
        bat = EnergySpectrum((0.0, 1.0, 2.5), "crooked")
        ch = identity_channel(small_sys(), bat, 1.0)
        with pytest.raises(NonUniformBattery):
            check_eti(ch, 0)


def _pair_deviations(channel):
    """{n: D} with D[k', k] = max over s', s of |r(s'k'|sk) - r(s',k'+n|s,k+n)|.

    Entries whose shifted block falls off the battery are NaN.
    """
    r4 = channel.blocks()
    nb = channel.n_battery
    out = {}
    for n in range(1 - nb, nb):
        lo, hi = max(0, -n), nb - max(0, n)
        dev = np.full((nb, nb), np.nan)
        dev[lo:hi, lo:hi] = np.abs(
            r4[:, lo:hi, :, lo:hi] - r4[:, lo + n : hi + n, :, lo + n : hi + n]
        ).max(axis=(0, 2))
        out[n] = dev
    return out


def _brute_force_eti(deviations, nb, k_min, convention, row_max, col_max):
    """Largest deviation over every pair of blocks the window puts together."""
    kp, k = np.indices((nb, nb))
    base = (k_min <= k) & (k <= row_max) & (kp <= col_max)
    worst = 0.0
    for n, dev in deviations.items():
        t, tp = k + n, kp + n
        t_min, tp_min = (k_min, 0) if convention == "main" else (0, k_min)
        shifted = (t_min <= t) & (t <= row_max) & (tp_min <= tp) & (tp <= col_max)
        pairs = dev[base & shifted]
        if pairs.size:
            worst = max(worst, float(pairs.max()))
    return worst


def _oracle_channels():
    for seed, n in enumerate((3, 4, 5, 6, 7, 8)):
        rng = np.random.default_rng(seed)
        sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, 2 + seed % 2))), "sys")
        channel = random_gibbs_stochastic(sys, ladder(n, 0.8), 1.0, seed, 8 * n)
        yield pytest.param(channel, id=f"random-N{n}")
    for seed, n in enumerate((2, 3, 7, 16, 30)):
        rng = np.random.default_rng(100 + seed)
        sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, 2 + seed % 2))), "sys")
        wit = random_gibbs_stochastic(sys, EnergySpectrum.wit(1.1), 1.0, seed, 30)
        channel = extend_to_oscillator(WitSubchannels.from_channel(wit), n)
        yield pytest.param(channel, id=f"ladder-N{n}")


class TestETIOracle:
    """check_eti against a pairwise scan of the windows in its docstring.

    Floating-point subtraction is monotone, so the largest pairwise
    difference equals max - min of each band exactly.
    """

    @pytest.mark.parametrize("channel", list(_oracle_channels()))
    def test_matches_pairwise_scan(self, channel):
        deviations = _pair_deviations(channel)
        nb = channel.n_battery
        r4 = channel.blocks()
        for top in (nb - 1, nb - 2):  # full band, then interior band
            for k_min in range(top + 1):
                for convention in ("main", "appendix"):
                    rep = check_eti(channel, k_min, convention, row_max=top, col_max=top)
                    expected = _brute_force_eti(deviations, nb, k_min, convention, top, top)
                    assert rep.max_violation == expected, (top, k_min, convention)
                    if rep.worst is None:
                        assert expected == 0.0
                        continue
                    a, b, k_hi, k_lo, d = rep.worst
                    assert r4[a, k_hi + d, b, k_hi] - r4[a, k_lo + d, b, k_lo] == expected


def _ladder_subchannels():
    """Seeded wit operations on 1-4 level systems, and erasure blocks (r11 = 0 at eps = 0)."""
    for dim in (1, 2, 3, 4):
        rng = np.random.default_rng(200 + dim)
        sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, dim))), "sys")
        wit = random_gibbs_stochastic(sys, EnergySpectrum.wit(float(rng.uniform(0.8, 1.6))), 1.0, dim, 30)
        yield WitSubchannels.from_channel(wit)
    yield oscillator_erasure_subchannels(0.0)
    yield oscillator_erasure_subchannels(0.1)


def _eti_windows(n):
    """(k_min, convention, row_max, col_max): every "main" window up to N = 12, a grid of them
    above, and the "appendix" windows with row_max = col_max among them."""
    tops = range(n + 1) if n <= 12 else sorted({0, 1, 2, n // 2, n - 2, n - 1, n})
    for k_min in tops:
        for row_max in (t for t in tops if t >= k_min):
            for col_max in tops:
                yield k_min, "main", row_max, col_max
            yield k_min, "appendix", row_max, row_max


class TestLadderETIByConstruction:
    """The unscanned interior windows of a LadderChannel against the dense scan of its matrix."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 40])
    def test_reports_match_dense_scan(self, n):
        for sub in _ladder_subchannels():
            ch = extend_to_oscillator(sub, n)
            dense = ThermalChannel(ch.matrix, ch.sys_in, ch.sys_out, ch.battery, ch.beta)
            for window in _eti_windows(n):
                k_min, convention, row_max, col_max = window
                rep = check_eti(ch, k_min, convention, row_max, col_max)
                assert rep == check_eti(dense, k_min, convention, row_max, col_max), window
                if convention == "main" and k_min >= 1 and max(row_max, col_max) <= n - 1:
                    assert rep.max_violation == 0.0 and rep.worst is None, window


class TestLadderChannel:
    def test_foreign_matrix_cannot_be_attached(self):
        ch = extend_to_oscillator(oscillator_erasure_subchannels(0.1), 6)
        m = ch.matrix.copy()
        with pytest.raises(TypeError):
            type(ch)(m, ch.sys_in, ch.sys_out, ch.battery, ch.beta)
        with pytest.raises(TypeError):
            LadderChannel(m, 6)
        with pytest.raises(TypeError):
            dataclasses.replace(ch, matrix=m)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.matrix = m
        assert not ch.matrix.flags.writeable

    @pytest.mark.parametrize("num_quanta", [0, -1, 2.5])
    def test_battery_size_must_be_a_positive_integer(self, num_quanta):
        with pytest.raises(DomainError):
            LadderChannel(oscillator_erasure_subchannels(0.1), num_quanta)

    def test_copy_rebuilds_from_blocks(self):
        ch = extend_to_oscillator(oscillator_erasure_subchannels(0.1), 6)
        for other in (copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))):
            assert type(other) is LadderChannel and other.num_quanta == 6
            assert_array_equal(other.matrix, ch.matrix)
            assert not other.matrix.flags.writeable


class TestExtractSubchannels:
    def test_identity_blocks(self):
        ch = identity_channel(small_sys(), ladder(), 1.0)
        assert_allclose(extract_subchannels(ch, 2, 2), np.eye(2))
        assert_allclose(extract_subchannels(ch, 2, 3), np.zeros((2, 2)))

    def test_out_of_range(self):
        ch = identity_channel(small_sys(), ladder(), 1.0)
        with pytest.raises(IndexOutOfRange):
            extract_subchannels(ch, 0, 99)

    def test_blocks_tile_matrix_exactly(self):
        ch = random_gibbs_stochastic(small_sys(), ladder(4, 1.1), 1.0, seed=9, num_mixes=30)
        nb, d = ch.n_battery, ch.d_in
        rebuilt = np.zeros_like(ch.matrix)
        r4 = rebuilt.reshape(d, nb, d, nb)
        for k in range(nb):
            for kp in range(nb):
                r4[:, kp, :, k] = extract_subchannels(ch, k, kp)
        assert np.array_equal(rebuilt, ch.matrix)


SWAP_DIMS = (2, 3, 4, 6, 8, 16, 30)
SWAP_MIXES = (0, 1, 25, 60)


class TestRandomGibbsStochastic:
    def test_zero_mixes_is_identity(self):
        ch = random_gibbs_stochastic(small_sys(), ladder(), 1.0, seed=4, num_mixes=0)
        assert np.array_equal(ch.matrix, np.eye(ch.matrix.shape[0]))

    def test_every_seed_validates(self):
        for seed in range(12):
            ch = random_gibbs_stochastic(small_sys(), ladder(4, 0.9), 0.8, seed=seed, num_mixes=25)
            assert validate(ch).ok

    def test_seed_reproducibility(self):
        a = random_gibbs_stochastic(small_sys(), ladder(), 1.0, seed=123, num_mixes=20)
        b = random_gibbs_stochastic(small_sys(), ladder(), 1.0, seed=123, num_mixes=20)
        assert np.array_equal(a.matrix, b.matrix)

    def test_one_level_space_refused(self):
        none = EnergySpectrum((0.0,), "none")
        with pytest.raises(DomainError):
            random_gibbs_stochastic(EnergySpectrum((0.3,)), none, 1.0, seed=1, num_mixes=1)
        ch = random_gibbs_stochastic(EnergySpectrum((0.3,)), none, 1.0, seed=1, num_mixes=0)
        assert np.array_equal(ch.matrix, np.eye(1))

    def test_matches_numpy_row_reference(self):
        rng = np.random.default_rng(24)
        cases = 0
        for d in range(1, 9):
            for beta in (0.1, 1.0, 5.0, 20.0):
                for tied in (False, True):
                    levels = np.sort(rng.uniform(0.0, 1.0, d))
                    if tied:  # repeated levels give equal Gibbs weights
                        levels = np.round(levels, 1)
                    sys = EnergySpectrum(tuple(levels))
                    wit = EnergySpectrum.wit(float(rng.uniform(0.5, 2.0)))
                    for battery in (wit, EnergySpectrum((0.0,), "none")):
                        num_mixes = int(rng.integers(0, 81)) if d * len(battery) > 1 else 0
                        seed = int(rng.integers(2**31))
                        ch = random_gibbs_stochastic(sys, battery, beta, seed, num_mixes)
                        ref = numpy_row_swaps(sys, battery, beta, seed, num_mixes)
                        assert ch.matrix.tobytes() == ref.tobytes(), (d, beta, tied, len(battery), num_mixes)
                        cases += 1
        assert cases == 128

    @pytest.mark.parametrize("dim", SWAP_DIMS)
    def test_matches_choice_and_uniform(self, dim):
        """Matrix bytes on 1,000 seeds against the rng.choice / rng.uniform draws."""
        rng = np.random.default_rng(dim)
        shapes = [(EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, dim)))), EnergySpectrum((0.0,), "none"))]
        if dim % 2 == 0:  # repeated levels give equal Gibbs weights
            levels = tuple(np.round(np.sort(rng.uniform(0.0, 1.0, dim // 2)), 1))
            shapes.append((EnergySpectrum(levels), EnergySpectrum.wit(1.1)))
        for seed in range(1000):
            sys, battery = shapes[seed % len(shapes)]
            beta = (0.1, 1.0, 5.0, 20.0)[seed % 4]
            ref = choice_uniform_matrices(sys, battery, beta, seed, SWAP_MIXES)
            for num_mixes in SWAP_MIXES:
                ch = random_gibbs_stochastic(sys, battery, beta, seed, num_mixes)
                assert ch.matrix.tobytes() == ref[num_mixes], (seed, num_mixes)

    @pytest.mark.parametrize("dim", [6, 7, 12])
    def test_bounded_draw_rejection(self, dim):
        """A kept zero half forces Lemire's rejection loop on the first draw."""
        assert (1 << 32) % (dim - 1) > 0  # a zero product lies below the threshold
        state = np.random.default_rng(dim).bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        ours, theirs = np.random.default_rng(), np.random.default_rng()
        ours.bit_generator.state = theirs.bit_generator.state = state
        assert channels._swap_draws(ours, dim, 5) == choice_uniform_draws(theirs, dim, 5)


def choice_uniform_draws(rng, dim, count):
    """Reference for _swap_draws: the numpy calls random_gibbs_stochastic once made."""
    draws = []
    for _ in range(count):
        a, b = rng.choice(dim, size=2, replace=False).tolist()
        draws.append((a, b, float(rng.uniform())))
    return draws


def choice_uniform_matrices(sys, battery, beta, seed, counts):
    """Reference: {n: matrix bytes after the first n swaps} for each n in counts.

    Drawn with choice_uniform_draws; rows are updated on Python floats, which
    test_matches_numpy_row_reference ties to the numpy-row update.
    """
    g = gibbs_weights(joint_spectrum(sys, battery), beta).tolist()
    dim = len(g)
    m = np.eye(dim)
    out = {0: m.tobytes()}
    draws = choice_uniform_draws(np.random.default_rng(seed), dim, max(counts))
    for n, (a, b, lam) in enumerate(draws, start=1):
        if g[a] < g[b]:
            a, b = b, a
        ratio = g[b] / g[a]
        row_a, row_b = m[a].tolist(), m[b].tolist()
        m[a] = [(1.0 - lam * ratio) * x + lam * y for x, y in zip(row_a, row_b)]
        m[b] = [lam * ratio * x + (1.0 - lam) * y for x, y in zip(row_a, row_b)]
        if n in counts:
            out[n] = m.tobytes()
    return out


def numpy_row_swaps(sys, battery, beta, seed, num_mixes):
    """Reference: random_gibbs_stochastic's matrix composed on numpy rows, as it once was."""
    rng = np.random.default_rng(seed)
    g = gibbs_weights(joint_spectrum(sys, battery), beta)
    dim = len(g)
    m = np.eye(dim)
    for _ in range(num_mixes):
        a, b = rng.choice(dim, size=2, replace=False)
        if g[a] < g[b]:
            a, b = b, a
        lam = float(rng.uniform())
        ratio = g[b] / g[a]
        row_a = m[a].copy()
        row_b = m[b].copy()
        m[a] = (1.0 - lam * ratio) * row_a + lam * row_b
        m[b] = lam * ratio * row_a + (1.0 - lam) * row_b
    return m


class TestWitSubchannels:
    def test_erasure_blocks_satisfy_invariants(self):
        eps = 0.1
        a = (1 - 2 * eps) / (2 * (1 - eps))
        sub = WitSubchannels(
            r00=np.array([[0.0, 0.0], [a, a]]),
            r01=np.eye(2) / (2 * (1 - eps)),
            r10=np.array([[1 - eps, 1 - eps], [eps, eps]]),
            r11=np.zeros((2, 2)),
            delta=np.log(2 * (1 - eps)),
            beta=1.0,
            system=EnergySpectrum.trivial(2),
        )
        stoch, gibbs = sub.residuals()
        assert stoch < 1e-15 and gibbs < 1e-15

    def test_invalid_blocks_rejected(self):
        with pytest.raises(InvalidSubchannels):
            WitSubchannels(
                r00=np.eye(2) * 0.4,
                r01=np.eye(2) * 0.4,
                r10=np.eye(2) * 0.5,
                r11=np.eye(2) * 0.5,
                delta=1.0,
                beta=1.0,
                system=EnergySpectrum.trivial(2),
            )

    @pytest.mark.parametrize("delta", [30.0, 800.0])
    def test_second_pair_residual_measured_against_its_target(self, delta):
        """r00 = r10 = I, r01 = r11 = 0: the raised battery level keeps only
        e^{-beta delta} of its Gibbs weight, a relative residual of 1."""
        sys = EnergySpectrum((0.0, 0.5), "sys")
        eye, zero = np.eye(2), np.zeros((2, 2))
        with pytest.raises(InvalidSubchannels, match="Gibbs pair residual 1.0"):
            WitSubchannels(r00=eye, r01=zero, r10=eye, r11=zero, delta=delta, beta=1.0, system=sys)
        r4 = np.zeros((2, 2, 2, 2))  # [s', k', s, k], with r_{k k'} = r4[:, k', :, k]
        r4[:, 0, :, 0] = r4[:, 0, :, 1] = eye
        report = validate(ThermalChannel(r4.reshape(4, 4), sys, sys, EnergySpectrum.wit(delta), 1.0))
        assert not report.ok and report.max_gibbs_residual == 1.0

    def test_second_pair_beyond_the_float_range_rejected(self):
        """beta delta = 800: r01 entries 1e-15 and -1e-15 in one row scale to inf and -inf."""
        sys = EnergySpectrum((0.0, 0.5), "sys")
        r00 = np.array([[1.0 - 1e-15, 1e-15], [0.0, 1.0]])
        r01 = np.array([[1e-15, -1e-15], [0.0, 0.0]])
        with pytest.raises(InvalidSubchannels, match="Gibbs pair residual inf"):
            WitSubchannels(r00, r01, np.zeros((2, 2)), np.eye(2), delta=800.0, beta=1.0, system=sys)

    def test_nan_blocks_rejected(self):
        sub = oscillator_erasure_subchannels(0.1)
        r01 = np.where(sub.r01 != 0.0, np.nan, 0.0)
        with pytest.raises(InvalidSubchannels):
            dataclasses.replace(sub, r01=r01)
        with pytest.raises(InvalidSubchannels):
            WitSubchannels(sub.r00, r01, sub.r10, sub.r11, sub.delta, sub.beta, sub.system)

    def test_nan_gap_rejected(self):
        sub = oscillator_erasure_subchannels(0.1)
        with pytest.raises(DomainError):
            dataclasses.replace(sub, delta=float("nan"))

    def test_channel_round_trip(self):
        ch = random_gibbs_stochastic(small_sys(), EnergySpectrum.wit(0.9), 1.0, seed=6, num_mixes=25)
        sub = WitSubchannels.from_channel(ch)
        back = sub.as_channel()
        assert np.array_equal(back.matrix, ch.matrix)
        assert type(back) is LadderChannel and back.num_quanta == 1 and back.sub is sub
        assert back.battery == ch.battery


def block_assembled_wit_channel(sub: WitSubchannels) -> ThermalChannel:
    """Reference: the two-level channel assembled block by block."""
    d = sub.dim
    r4 = np.zeros((d, 2, d, 2))
    r4[:, 0, :, 0] = sub.r00
    r4[:, 1, :, 0] = sub.r01
    r4[:, 0, :, 1] = sub.r10
    r4[:, 1, :, 1] = sub.r11
    return ThermalChannel(r4.reshape(2 * d, 2 * d), sub.system, sub.system, EnergySpectrum.wit(sub.delta), sub.beta)


class TestWitChannelIsLadder:
    def test_matches_block_assembly(self):
        rng = np.random.default_rng(17)
        subs = []
        for seed in range(300):
            d = int(rng.integers(1, 7))
            sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.5, d))))
            wit = EnergySpectrum.wit(float(rng.uniform(0.0, 2.0)))
            ch = random_gibbs_stochastic(sys, wit, float(rng.choice([0.1, 1.0, 5.0])), seed, 25)
            subs.append(WitSubchannels.from_channel(ch))
        subs += [oscillator_erasure_subchannels(eps) for eps in (0.0, 0.1, 0.3, 0.49)]
        subs += [thermalization_subchannels(1.0, delta) for delta in (0.8, 0.0)]  # 0: degenerate battery
        for sub in subs:
            ch, ref = sub.as_channel(), block_assembled_wit_channel(sub)
            assert ch.matrix.tobytes() == ref.matrix.tobytes()
            assert (ch.sys_in, ch.sys_out, ch.battery, ch.beta) == (ref.sys_in, ref.sys_out, ref.battery, ref.beta)
