"""Every matrix-free LadderChannel kernel against the dense kernel on the same matrix.

The dense side is a plain ThermalChannel holding the ladder's matrix, so it
takes each kernel's dense body.
"""

import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from referee import FOUR_ULP, relative_error
from referee import conditional_band as referee_band

import thermops.experiments as experiments
from thermops.batteries import work_distribution
from thermops.bounds import conditional_jarzynski_band, theorem1_certify, theorem2_bound
from thermops.channels import (
    LadderChannel,
    ThermalChannel,
    WitSubchannels,
    apply,
    extract_subchannels,
    random_gibbs_stochastic,
    validate,
)
from thermops.construction import extend_to_oscillator, verify_extension
from thermops.erasure import oscillator_erasure_subchannels
from thermops.spectra import DiagonalState, EnergySpectrum

SIZES = [1, 2, 3, 7, 40]


def seeded_wit(dim, seed):
    """Seeded valid wit operation on a `dim`-level system, beta = 1."""
    rng = np.random.default_rng([dim, seed])
    sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, dim))), "sys")
    wit = EnergySpectrum.wit(float(rng.uniform(0.8, 1.6)))
    return WitSubchannels.from_channel(random_gibbs_stochastic(sys, wit, 1.0, seed=seed, num_mixes=30))


def _operations():
    for dim in (1, 2, 3, 4):
        for seed in range(3):
            yield f"d={dim} seed={seed}", seeded_wit(dim, seed)
    for eps in (0.0, 0.1):
        yield f"erasure eps={eps}", oscillator_erasure_subchannels(eps)


OPERATIONS = list(_operations())


def dense_copy(ch):
    return ThermalChannel(ch.matrix, ch.sys_in, ch.sys_out, ch.battery, ch.beta)


def eager_band_assembly(sub, n):
    """Reference: the band-wise assembly LadderChannel ran eagerly before it kept its blocks."""
    d, nb = sub.dim, n + 1
    powers = [np.eye(d)]
    for _ in range(n):
        powers.append(powers[-1] @ sub.r01)
    a_blocks = [sub.r00 @ powers[i] for i in range(n)]
    c_blocks = [a_blocks[i] @ sub.r11 for i in range(n)]
    t_blocks = [powers[j] @ sub.r11 for j in range(nb)]
    r4 = np.zeros((d, nb, d, nb))
    levels = np.arange(nb)
    r4[:, levels[:n], :, 0] = np.array(a_blocks)
    r4[:, n, :, 0] = powers[n]
    r4[:, levels[:n], :, levels[1:]] = sub.r10
    for i in range(n - 1):
        ks = levels[1 : n - i]
        r4[:, ks + i, :, ks] = c_blocks[i]
    ks = levels[1:n]
    r4[:, n, :, ks] = np.array(t_blocks)[n - ks]
    r4[:, n, :, n] = sub.r11
    return r4.reshape(d * nb, d * nb)


def _states(sub, n, rng):
    battery = EnergySpectrum.oscillator(n, sub.delta)
    x = DiagonalState(rng.dirichlet(np.ones(sub.dim)), sub.system)
    bats = [DiagonalState.pure(k, battery) for k in sorted({0, 1, n // 2, n})]
    bats.append(DiagonalState(rng.dirichlet(np.ones(n + 1)), battery))
    return x, bats


@pytest.mark.parametrize("n", SIZES)
class TestLadderKernels:
    def test_matrix_is_the_eager_assembly_built_once(self, n):
        for _, sub in OPERATIONS:
            ch = LadderChannel(sub, n)
            repr(ch)
            assert "matrix" not in vars(ch)
            m = ch.matrix
            assert m.tobytes() == eager_band_assembly(sub, n).tobytes()
            assert ch.matrix is m and not m.flags.writeable

    def test_conditional_band_bit_equal(self, n):
        """Any order or subset of levels gives the full band's values bit for bit,
        and the band agrees with the dense kernel on the same matrix."""
        rng = np.random.default_rng(n)
        for name, sub in OPERATIONS:
            ch = LadderChannel(sub, n)
            every = np.arange(n + 1)
            band = conditional_jarzynski_band(ch, every)
            for ks in (rng.permutation(every), np.array([n, 0]), every[1:], every[n // 2 :], [n // 2 + 1]):
                if max(ks) <= n:
                    assert_array_equal(conditional_jarzynski_band(ch, ks), band[ks], name)
            assert_allclose(band, conditional_jarzynski_band(dense_copy(ch), every), rtol=1e-12, atol=0, err_msg=name)

    def test_validate(self, n):
        for name, sub in OPERATIONS:
            ch = LadderChannel(sub, n)
            fast, ref = validate(ch), validate(dense_copy(ch))
            assert fast.ok == ref.ok, name
            assert fast.entry_min == ref.entry_min and fast.entry_max == ref.entry_max, name
            assert np.max(np.abs(fast.column_residuals - ref.column_residuals)) <= 1e-13, name
            assert np.max(np.abs(fast.row_residuals - ref.row_residuals)) <= 1e-13, name
            assert fast.max_gibbs_residual <= 1e-13 and fast.max_stochasticity_residual <= 1e-13, name

    def test_apply_and_work_masses(self, n):
        rng = np.random.default_rng([n, 1])
        for name, sub in OPERATIONS:
            ch = LadderChannel(sub, n)
            dense = dense_copy(ch)
            x, bats = _states(sub, n, rng)
            for bat in bats:
                assert np.max(np.abs(apply(ch, x, bat).probs - apply(dense, x, bat).probs)) <= 1e-14, name
                fast, ref = work_distribution(ch, x, bat), work_distribution(dense, x, bat)
                masses = {}
                for sign, wd in ((1.0, fast), (-1.0, ref)):
                    for w, p in zip(wd.support, wd.probs):
                        j = int(round(w / sub.delta))
                        masses[j] = masses.get(j, 0.0) + sign * p
                assert max(abs(v) for v in masses.values()) <= 1e-14, name
            joint = DiagonalState(rng.dirichlet(np.ones(sub.dim * (n + 1))), ch.joint_in_spectrum())
            assert np.max(np.abs(apply(ch, joint=joint).probs - apply(dense, joint=joint).probs)) <= 1e-14, name

    def test_extract_subchannels(self, n):
        for name, sub in OPERATIONS:
            ch = LadderChannel(sub, n)
            dense = dense_copy(ch)
            for k in range(n + 1):
                for kp in range(n + 1):
                    block = extract_subchannels(ch, k, kp)
                    assert_array_equal(block, extract_subchannels(dense, k, kp), f"{name} {k}->{kp}")
                    assert block.flags.writeable


def test_conditional_band_matches_referee():
    """Within four units in the last place of the 50-digit band, up to N = 148."""
    for n in (*SIZES, 148):
        for name, sub in OPERATIONS:
            band = LadderChannel(sub, n).conditional_band()
            errors = [relative_error(a, b) for a, b in zip(band, referee_band(sub, n))]
            assert max(errors) <= FOUR_ULP, (n, name, max(errors))


def frozen_battery_at_large_gap():
    """beta delta = 800, where a valid wit operation has r01 = r10 = 0: the battery never moves."""
    sys = EnergySpectrum((0.0, 0.5), "sys")
    zero = np.zeros((2, 2))
    return WitSubchannels(r00=np.eye(2), r01=zero, r10=zero, r11=np.eye(2), delta=800.0, beta=1.0, system=sys)


def test_conditional_band_past_the_float_range_of_the_gap():
    """beta delta = 800: e^{beta delta} is no float, but e^{beta delta} r01 = 0 is."""
    ch = LadderChannel(frozen_battery_at_large_gap(), 4)
    band = conditional_jarzynski_band(ch, np.arange(5))
    assert_allclose(band, np.full(5, 1.0 + np.exp(-0.5)), rtol=1e-15, atol=0)
    assert_allclose(band, conditional_jarzynski_band(dense_copy(ch), np.arange(5)), rtol=1e-12, atol=0)


def test_residuals_past_the_float_range_of_the_gap():
    """beta delta = 800: the Gibbs rows are finite and equal the dense rows, with no warning."""
    ch = LadderChannel(frozen_battery_at_large_gap(), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = validate(ch)
    ref = validate(dense_copy(ch))
    assert fast.ok and ref.ok
    assert fast.max_gibbs_residual == ref.max_gibbs_residual == 0.0
    assert_array_equal(fast.row_residuals, ref.row_residuals)
    assert_array_equal(fast.column_residuals, ref.column_residuals)


@pytest.mark.parametrize("n", [n for n in SIZES if n >= 2])  # the extension starts at N = 2
def test_verify_extension(n):
    for name, sub in OPERATIONS:
        ch = extend_to_oscillator(sub, n)
        fast, ref = verify_extension(ch), verify_extension(dense_copy(ch), sub)
        assert (fast.ok, fast.eti, fast.blocks_ok, fast.block_max_deviation, fast.block_first_mismatch, fast.tail) == (
            ref.ok, ref.eti, ref.blocks_ok, ref.block_max_deviation, ref.block_first_mismatch, ref.tail
        ), name


class TestNoDenseMatrix:
    def test_audit_calls_leave_the_matrix_unbuilt(self):
        """The five calls of one benchmark ladder-audit operation, at N = 300."""
        rng = np.random.default_rng(3)
        sub, n = seeded_wit(3, 7), 300
        ch = extend_to_oscillator(sub, n)
        x = DiagonalState(rng.dirichlet(np.ones(3)), sub.system)
        p = np.zeros(n + 1)
        p[0] = 0.5
        p[1:11] = 0.05
        assert verify_extension(ch, sub).ok
        assert theorem1_certify(ch, x, k_min=1).passed
        assert theorem2_bound(ch, x, DiagonalState(p, ch.battery), k_min=1).slack >= 0.0
        work_distribution(ch, x, DiagonalState.pure(n // 2, ch.battery))
        assert "matrix" not in vars(ch)

    def test_large_ladder_stays_small(self):
        """N = 2000 at d = 3: the dense matrix would take 288 MB."""
        rng = np.random.default_rng(4)
        sub, n = seeded_wit(3, 1), 2000
        x = DiagonalState(rng.dirichlet(np.ones(3)), sub.system)
        tracemalloc.start()
        try:
            ch = extend_to_oscillator(sub, n)
            p = np.zeros(n + 1)
            p[0] = 0.5
            p[1:11] = 0.05
            bat = DiagonalState(p, ch.battery)
            report = verify_extension(ch, sub)
            second_law = theorem2_bound(ch, x, bat, k_min=1)
            wd = work_distribution(ch, x, DiagonalState.pure(n // 2, ch.battery))
            out = apply(ch, x, bat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert "matrix" not in vars(ch)
        assert report.ok and np.isfinite(report.validation.max_gibbs_residual)
        assert np.isfinite(report.validation.max_stochasticity_residual)
        assert np.isfinite(second_law.slack) and second_law.slack >= 0.0
        assert abs(wd.probs.sum() - 1.0) <= 1e-12 and abs(out.probs.sum() - 1.0) <= 1e-12


def eager_block_stack(sub, n):
    """Reference: the stack LadderChannel built at construction, its r01 chain through np.matmul."""
    d = sub.dim
    powers = np.empty((n + 1, d, d))
    powers[0] = np.eye(d)
    for i in range(n):
        np.matmul(powers[i], sub.r01, out=powers[i + 1])
    stack = np.empty((3 * n + 2, d, d))
    np.matmul(sub.r00, powers[:n], out=stack[:n])
    stack[n] = powers[n]
    np.matmul(stack[: n - 1], sub.r11, out=stack[n + 1 : 2 * n])
    np.matmul(powers[1:n], sub.r11, out=stack[2 * n : 3 * n - 1])
    stack[3 * n - 1], stack[3 * n], stack[3 * n + 1] = sub.r10, sub.r11, 0.0
    return stack


class TestBlockStackOnDemand:
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 3000])
    def test_stack_is_the_eager_stack(self, n):
        for dim in range(1, 10):
            for seed in range(2):
                ch = LadderChannel(seeded_wit(dim, seed), n)
                assert "block_stack" not in vars(ch)
                stack = ch.block_stack
                assert stack.tobytes() == eager_block_stack(ch.sub, n).tobytes(), (dim, seed)
                assert ch.block_stack is stack and not stack.flags.writeable

    def test_kernels_that_leave_the_stack_unbuilt(self):
        rng = np.random.default_rng(5)
        sub, n = seeded_wit(3, 2), 40
        ch = extend_to_oscillator(sub, n)
        x, bats = _states(sub, n, rng)
        assert "block_stack" not in vars(ch)
        theorem1_certify(ch, x, k_min=1)
        theorem2_bound(ch, x, bats[-1], k_min=1)
        for bat in bats:
            work_distribution(ch, x, bat)
            apply(ch, x, bat)
        ch.conditional_band()
        assert "block_stack" not in vars(ch) and "matrix" not in vars(ch)

    @pytest.mark.parametrize("name", ["certify-thm1", "certify-thm2", "certify-thm4"])
    def test_sweeps_leave_the_stack_unbuilt(self, monkeypatch, name):
        built = []

        def extend(sub, n):
            built.append(extend_to_oscillator(sub, n))
            return built[-1]

        monkeypatch.setattr(experiments, "extend_to_oscillator", extend)
        assert experiments.run_experiment(name, {"trials": 3, "num_quanta": 40}).passed
        assert len(built) == 3
        assert not any("block_stack" in vars(ch) for ch in built)

    @pytest.mark.parametrize(
        "read",
        [
            validate,
            verify_extension,
            lambda ch: extract_subchannels(ch, 2, 3),
            lambda ch: ch.matrix,
        ],
        ids=["validate", "verify_extension", "extract_subchannels", "matrix"],
    )
    def test_readers_build_the_stack(self, read):
        ch = extend_to_oscillator(seeded_wit(2, 1), 6)
        read(ch)
        assert "block_stack" in vars(ch)

    def test_copies_round_trip(self):
        ch = extend_to_oscillator(seeded_wit(3, 0), 7)
        copies = [copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))]
        stack = ch.block_stack
        copies += [copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))]
        for other in copies:
            assert type(other) is LadderChannel and other.num_quanta == 7
            assert "block_stack" not in vars(other)
            assert other.block_stack.tobytes() == stack.tobytes()
            assert other.matrix.tobytes() == ch.matrix.tobytes()
