import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from thermops.batteries import (
    MERGE_TOL,
    CostFunction,
    WorkDistribution,
    average_work,
    battery_energy_change,
    f1_measure,
    general_cost,
    theorem4_check,
    variance,
    ladder_work_distribution,
    work_distribution,
    _merge_support,
    _power_orbit,
)
from thermops.channels import WitSubchannels, identity_channel, random_gibbs_stochastic
from thermops.construction import extend_to_oscillator
from thermops.erasure import oscillator_erasure_subchannels
from thermops.errors import DomainError, PreconditionViolated
from thermops.experiments import random_wit_subchannels, thermalization_subchannels
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


def leader_rule_merge(values, probs, tol):
    """Reference merge, one value at a time: a sorted value joins the current
    group if it is within tol of the group's first value, and the group's
    masses are added in sorted order."""
    order = np.argsort(values, kind="stable")
    out_v, out_p = [], []
    for v, p in zip(values[order], probs[order]):
        if out_v and abs(v - out_v[-1]) <= tol:
            out_p[-1] += p
        else:
            out_v.append(float(v))
            out_p.append(float(p))
    return np.asarray(out_v), np.asarray(out_p)


def _merge_cases():
    tol = MERGE_TOL
    rng = np.random.default_rng(23)
    cases = {
        "single value": ([0.3], [1.0]),
        # Every step is within tol but the run spans 30 tol: the groups
        # split greedily from each leader.
        "chained near-ties": (np.arange(70) * 0.43 * tol, rng.uniform(size=70)),
        "steps of exactly tol": (np.arange(25) * tol - 3.0, rng.uniform(size=25)),
        # Groups of 9, 17 and 64 members, shuffled: a pairwise or blocked sum
        # of eight changes the bits of these sums.
        "large groups": (
            np.repeat([-1.0, 0.0, 2.5], [9, 17, 64]) + rng.uniform(0, 0.9 * tol, 90),
            rng.uniform(size=90),
        ),
        "zero masses": (
            rng.integers(0, 5, 60) * 0.5 + rng.choice([0.0, 0.6 * tol], 60),
            rng.uniform(size=60) * (rng.uniform(size=60) < 0.5),
        ),
        "ladder works": (
            (0.7 * np.arange(41)[:, None] - 0.7 * np.arange(41)[None, :]).ravel(),
            rng.dirichlet(np.ones(41 * 41)),
        ),
    }
    for seed in range(12):
        r = np.random.default_rng([seed, 5])
        m = int(r.integers(2, 300))
        v = r.integers(0, 15, m) * 1e-11 + r.choice([0.0, 3e-13, 8e-13, 1e-12, 1.3e-12], m) * r.integers(-2, 3, m)
        if seed % 3 == 0:
            v = np.cumsum(r.uniform(0.0, 1.2 * tol, m))
        cases[f"fuzz {seed}"] = (v, r.uniform(size=m) * (r.uniform(size=m) < 0.8))
    # A ladder's N + 2 work values, all distinct: every group is one mass.
    rng = np.random.default_rng(41)
    masses = rng.dirichlet(np.ones(707))
    masses[rng.integers(0, 707, 40)] = 0.0
    cases["distinct ladder offsets"] = (0.6 * np.arange(-1, 706), masses)
    cases["empty"] = ([], [])
    return {name: (np.asarray(v, dtype=float), np.asarray(p, dtype=float)) for name, (v, p) in cases.items()}


class TestMergeSupport:
    @pytest.mark.parametrize("name, case", list(_merge_cases().items()))
    def test_matches_leader_rule_loop_bitwise(self, name, case):
        values, probs = case
        got_v, got_p = _merge_support(values, probs, MERGE_TOL)
        want_v, want_p = leader_rule_merge(values, probs, MERGE_TOL)
        assert_array_equal(got_v, want_v)
        assert_array_equal(got_p, want_p)

    def test_chained_near_ties_split_greedily(self):
        values = np.arange(5) * 0.6 * MERGE_TOL
        support, probs = _merge_support(values, np.full(5, 0.2), MERGE_TOL)
        assert_array_equal(support, values[[0, 2, 4]])
        assert_array_equal(probs, [0.4, 0.4, 0.2])

    def test_distribution_keeps_groups_with_mass(self):
        values, probs = _merge_cases()["zero masses"]
        wd = WorkDistribution(values, probs / probs.sum())
        want_v, want_p = leader_rule_merge(values, probs / probs.sum(), MERGE_TOL)
        assert_array_equal(wd.support, want_v[want_p > 0])
        assert_array_equal(wd.probs, want_p[want_p > 0])

    def test_empty_support_rejected(self):
        with pytest.raises(DomainError, match="at least one value"):
            WorkDistribution(support=np.array([]), probs=np.array([]))


def group_starts(v, tol):
    """Leader indices of sorted values, found without a loop where no run of
    steps <= tol spans more than tol (a step above tol always starts a group)."""
    cut = np.flatnonzero(~(np.diff(v) <= tol)) + 1
    starts = np.concatenate(([0], cut))
    ends = np.append(cut, len(v))
    extra = []
    for lo, hi in zip(starts, ends):
        if v[hi - 1] - v[lo] <= tol:
            continue
        lead = lo
        for j in range(lo + 1, hi):
            if not v[j] - v[lead] <= tol:
                extra.append(j)
                lead = j
    return np.sort(np.concatenate((starts, extra))).astype(np.intp)


def padded_cumsum_merge(values, probs, tol):
    """The merge with every group, singletons too, summed by a padded cumsum row."""
    order = np.argsort(values, kind="stable")
    v, p = values[order], probs[order]
    if v.size == 0:
        return v, p
    starts = group_starts(v, tol)
    sizes = np.diff(np.append(starts, len(v)))
    sums = np.empty(len(starts))
    width_class = np.frexp(sizes - 1)[1]
    for c in np.flatnonzero(np.bincount(width_class)):
        rows = np.flatnonzero(width_class == c)
        width = 1 << int(c)
        cols = np.arange(width)
        filled = cols < sizes[rows, None]
        padded = np.zeros((len(rows), width))
        padded[filled] = p[(starts[rows, None] + cols)[filled]]
        np.cumsum(padded, axis=1, out=padded)
        sums[rows] = padded[np.arange(len(rows)), sizes[rows] - 1]
    return v[starts], sums


class TestMergeSingletonGroups:
    @pytest.mark.parametrize("name, case", list(_merge_cases().items()))
    def test_bit_equal_to_padded_cumsum_for_every_group(self, name, case):
        values, probs = case
        got_v, got_p = _merge_support(values, probs, MERGE_TOL)
        want_v, want_p = padded_cumsum_merge(values, probs, MERGE_TOL)
        assert got_v.tobytes() == want_v.tobytes()
        assert got_p.tobytes() == want_p.tobytes()


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


def chunk_loop_orbit(m, v, count):
    """m^j v by a batched product per chunk of floor(sqrt(count)) steps."""
    block = max(1, int(np.sqrt(count)))
    powers = np.empty((block, *m.shape))
    powers[0] = np.eye(len(m))
    for j in range(1, block):
        powers[j] = m @ powers[j - 1]
    out = np.empty((count, *v.shape))
    for i in range(0, count, block):
        chunk = powers[: count - i] @ v
        out[i : i + len(chunk)] = chunk
        v = m @ chunk[-1]
    return out


def seeded_wit(dim, seed):
    """Valid wit operation on a `dim`-level system from random partial beta-swaps."""
    rng = np.random.default_rng([seed, dim])
    sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, dim))), "sys")
    channel = random_gibbs_stochastic(
        sys, EnergySpectrum.wit(float(rng.uniform(0.8, 1.6))), 1.0, seed=seed, num_mixes=8 * dim
    )
    return WitSubchannels.from_channel(channel)


def _orbit_matrices():
    """(r01, r11) pairs: erasure blocks, seeded operations, and slow decays for d = 1-9.

    A seeded operation's r01 decays fast, so its long orbits end in zeros;
    the random substochastic blocks with column sums 1/1.0005 keep every
    step of a 13,831-step orbit a normal float.
    """
    subs = {f"erasure eps={eps}": oscillator_erasure_subchannels(eps) for eps in (0.0, 0.3, 0.48, 0.499)}
    subs.update({f"seeded ({seed}, {trial})": random_wit_subchannels(seed, trial) for seed, trial in ((0, 1), (1, 7), (2, 50))})
    subs.update({f"d={dim}": seeded_wit(dim, 11) for dim in range(1, 10)})
    out = {name: (sub.r01, sub.r11) for name, sub in subs.items()}
    rng = np.random.default_rng(31)
    for dim in range(1, 10):
        m = rng.uniform(size=(dim, dim))
        out[f"slow d={dim}"] = (m / (1.0005 * m.sum(axis=0)), rng.uniform(size=(dim, dim)))
    return out


ORBIT_COUNTS = (1, 2, 3, 4, 5, 9, 41, 301, 706, 2778, 13831)


class TestPowerOrbit:
    @pytest.mark.parametrize("name, blocks", list(_orbit_matrices().items()))
    def test_bit_equal_to_chunk_loop(self, name, blocks):
        r01, r11 = blocks
        x = np.random.default_rng(len(r01)).dirichlet(np.ones(len(r01)))
        v = np.column_stack((x, r11 @ x))
        for count in ORBIT_COUNTS:
            got = _power_orbit(r01, v, count)
            want = chunk_loop_orbit(r01, v, count)
            assert got.shape == want.shape == (count, len(r01), 2)
            assert got.tobytes() == want.tobytes(), count

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_ladder_work_bit_equal_to_chunk_loop_and_full_merge(self, dim):
        sub = seeded_wit(dim, 5)
        n = 300
        rng = np.random.default_rng(dim)
        sys = DiagonalState(rng.dirichlet(np.ones(dim)), sub.system)
        bat = DiagonalState(rng.dirichlet(np.ones(n + 1)), EnergySpectrum.oscillator(n, sub.delta))
        got = ladder_work_distribution(sub, n, sys, bat)
        # The masses as first written: strided sums over the chunk-loop orbit, then the full merge.
        x, b = sys.probs, bat.probs
        krylov = chunk_loop_orbit(sub.r01, np.column_stack((x, sub.r11 @ x)), n + 1)
        c = sub.r00.sum(axis=0)
        above = np.concatenate(([0.0], np.cumsum(b[1:])))
        masses = np.empty(n + 2)
        masses[0] = (sub.r10 @ x).sum() * above[n]
        masses[1:-1] = (
            b[0] * (krylov[:n, :, 0] @ c)
            + above[n - 1::-1] * (krylov[:n, :, 1] @ c)
            + b[n:0:-1] * krylov[:n, :, 1].sum(axis=1)
        )
        masses[-1] = b[0] * krylov[n, :, 0].sum()
        want_v, want_p = _merge_support(sub.delta * np.arange(-1, n + 1), np.clip(masses, 0.0, None), MERGE_TOL)
        keep = want_p > 0.0
        assert got.support.tobytes() == want_v[keep].tobytes()
        assert got.probs.tobytes() == want_p[keep].tobytes()


def merged_distribution(values, probs):
    """WorkDistribution's support and masses with every support sent through the merge."""
    v, p = _merge_support(values, np.clip(probs, 0.0, None), MERGE_TOL)
    keep = p > 0.0
    return v[keep], p[keep]


def _distinct_supports():
    rng = np.random.default_rng(23)
    cases = {}
    for m in (1, 2, 7, 707):
        p = rng.dirichlet(np.ones(m))
        if m > 2:
            p[rng.integers(0, m, m // 3)] = 0.0
            p[rng.integers(0, m, 2)] = -1e-16
        p /= p.sum()
        cases[f"ladder offsets m={m}"] = (0.6 * np.arange(-1, m - 1), p)
    steps = 1.0000001 * MERGE_TOL * np.ones(50)
    cases["steps just above tol"] = (np.cumsum(steps), np.full(50, 0.02))
    return cases


def _near_tie_supports():
    cases = {}
    base = 0.6 * np.arange(20.0)
    probs = np.full(20, 0.05)
    for name, j, shift in (("step at tol", 0, MERGE_TOL), ("step below tol", 3, 0.4 * MERGE_TOL), ("tie", 12, 0.0)):
        v = base.copy()
        v[j + 1] = v[j] + shift
        cases[name] = (v, probs)
    cases["falls once"] = (base[::-1].copy(), probs)
    cases["nan"] = (np.array([0.0, np.nan, 1.0]), np.array([0.5, 0.0, 0.5]))
    return cases


class TestDistinctSupportSkipsMerge:
    @pytest.mark.parametrize("name, case", list({**_distinct_supports(), **_near_tie_supports()}.items()))
    def test_bit_equal_to_merge(self, name, case):
        values, probs = case
        wd = WorkDistribution(values, probs)
        want_v, want_p = merged_distribution(values, probs)
        assert wd.support.tobytes() == want_v.tobytes()
        assert wd.probs.tobytes() == want_p.tobytes()

    @pytest.mark.parametrize("name, case", list(_distinct_supports().items()))
    def test_distinct_support_takes_no_merge(self, name, case, monkeypatch):
        import thermops.batteries as batteries

        def no_merge(*args):
            raise AssertionError("merge called on a support of distinct values")

        monkeypatch.setattr(batteries, "_merge_support", no_merge)
        WorkDistribution(*case)

    @pytest.mark.parametrize("name, case", list(_near_tie_supports().items()))
    def test_near_ties_fall_back_to_merge(self, name, case, monkeypatch):
        import thermops.batteries as batteries

        calls = []
        merge = batteries._merge_support
        monkeypatch.setattr(batteries, "_merge_support", lambda *a: calls.append(1) or merge(*a))
        WorkDistribution(*case)
        assert calls == [1]
