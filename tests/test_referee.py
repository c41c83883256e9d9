"""The 50-digit referee (tests/referee.py): pinned on a hand-checked ladder, then used on seeded ones."""

from decimal import Decimal, localcontext

import numpy as np
from referee import FOUR_ULP, conditional_band, ladder_statistics, relative_error, theorem2_statistics

from thermops.batteries import average_work, variance, work_distribution
from thermops.bounds import theorem2_bound
from thermops.channels import LadderChannel, WitSubchannels, apply, random_gibbs_stochastic, sys_marginal
from thermops.construction import extend_to_oscillator
from thermops.erasure import oscillator_erasure_subchannels
from thermops.spectra import DiagonalState, EnergySpectrum


def seeded_wit(seed):
    """Seeded valid wit operation on a three-level system, beta = 1."""
    rng = np.random.default_rng(seed)
    sys = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 1.0, 3))), "sys")
    wit = EnergySpectrum.wit(float(rng.uniform(0.8, 1.6)))
    return WitSubchannels.from_channel(random_gibbs_stochastic(sys, wit, 1.0, seed=seed, num_mixes=30))


def test_hand_checked_erasure_ladder():
    """Perfect erasure (eps = 0) at N = 6, x = (1/2, 1/2), battery (1/2, 1/2, 0, ...).

    The blocks are dyadic: r00 = [[0, 0], [1/2, 1/2]], r01 = I/2, r10 = [[1, 1], [0, 0]],
    r11 = 0.  Level 1 drops to 0 with certainty; the vacuum column sends mass
    2^-(j+1) to level j < 6 (system level 1) and 2^-6 to level 6 (x / 64).  So
    p(-1) = 1/2, p(j) = 2^-(j+2) for j < 6, p(6) = 1/128; <w> = -delta/128,
    Var = delta^2 (241/128 - 1/128^2), the system leaves as (129/256, 127/256),
    and Delta F = ln 2 - h(129/256) on the degenerate system.
    """
    sub = oscillator_erasure_subchannels(0.0)
    x = [0.5, 0.5]
    b = [0.5, 0.5, 0, 0, 0, 0, 0]
    stats = ladder_statistics(sub, 6, x, b)
    with localcontext() as ctx:
        ctx.prec = 50
        delta = Decimal(sub.delta)
        half = Decimal(1) / 2
        masses = [half] + [Decimal(2) ** -(j + 2) for j in range(6)] + [Decimal(1) / 128]
        q = Decimal(129) / 256
        h = -(q * q.ln() + (1 - q) * (1 - q).ln())
        expected = {
            "avg_work": -delta / 128,
            "variance": delta * delta * (Decimal(241) / 128 - Decimal(1) / 128**2),
            "delta_F": Decimal(2).ln() - h,
        }
        assert stats["masses"] == masses
        assert stats["sys_out"] == [q, 1 - q]
        for key, value in expected.items():
            assert abs(stats[key] - value) <= Decimal("1e-45"), key

    ch = extend_to_oscillator(sub, 6)
    xs = DiagonalState(np.array(x), sub.system)
    bat = DiagonalState(np.array(b, dtype=float), ch.battery)
    wd = work_distribution(ch, xs, bat)
    assert relative_error(average_work(wd), stats["avg_work"]) <= FOUR_ULP
    assert relative_error(variance(wd), stats["variance"]) <= FOUR_ULP
    assert relative_error(theorem2_bound(ch, xs, bat, k_min=1).delta_F, stats["delta_F"]) <= FOUR_ULP


def test_seeded_ladders_within_four_ulp():
    """20 seeded three-level operations at N = 40, battery with vacuum weight 0.2-0.8."""
    n = 40
    for seed in range(20):
        sub = seeded_wit(100 + seed)
        rng = np.random.default_rng(seed)
        ch = extend_to_oscillator(sub, n)
        x = DiagonalState(rng.dirichlet(np.ones(3)), sub.system)
        p = np.zeros(n + 1)
        p[0] = rng.uniform(0.2, 0.8)
        p[1:8] = (1.0 - p[0]) * rng.dirichlet(np.ones(7))
        bat = DiagonalState(p / p.sum(), ch.battery)
        ref = theorem2_statistics(sub, n, x.probs, bat.probs)
        wd = work_distribution(ch, x, bat)
        report = theorem2_bound(ch, x, bat, k_min=1)
        out = sys_marginal(apply(ch, x, bat), 3, n + 1)
        errors = {
            "avg_work": relative_error(average_work(wd), ref["avg_work"]),
            "variance": relative_error(variance(wd), ref["variance"]),
            "theorem2 avg_work": relative_error(report.avg_work, ref["avg_work"]),
            "delta_F": relative_error(report.delta_F, ref["delta_F"]),
            "slack": relative_error(report.slack, ref["slack"]),
            "sys_out": max(relative_error(a, b) for a, b in zip(out, ref["sys_out"])),
        }
        assert max(errors.values()) <= FOUR_ULP, (seed, errors)


def test_hand_checked_erasure_band():
    """Perfect erasure at N = 6 on the degenerate qubit, so e^{-beta E_s} = 1.

    Let q = e^{beta delta} / 2.  The vacuum column holds r00 r01^i = r00 / 2^i
    at level i < 6, weighted e^{beta delta i} = (2q)^i, and 1^T r00 1 = 1, so
    level i adds q^i; level 6 holds r01^6 = I / 64, weighted (2q)^6, and adds
    2 q^6.  Every other column k holds only r10 at k - 1, whose entries sum
    to 2, weighted e^{-beta delta}: 1 / q.  The float delta is ln 2 to within
    2.4e-17, so q = 1 to that order: the vacuum column is N + 2 = 8 and every
    other column is 1.
    """
    sub = oscillator_erasure_subchannels(0.0)
    band = conditional_band(sub, 6)
    with localcontext() as ctx:
        ctx.prec = 50
        q = (Decimal(sub.beta) * Decimal(sub.delta)).exp() / 2
        assert abs(band[0] - (sum(q**i for i in range(6)) + 2 * q**6)) <= Decimal("1e-45")
        assert all(abs(value - 1 / q) <= Decimal("1e-45") for value in band[1:])
        assert abs(band[0] - 8) <= Decimal("1e-15")
        assert all(abs(value - 1) <= Decimal("1e-16") for value in band[1:])
    fast = LadderChannel(sub, 6).conditional_band()
    assert max(relative_error(a, b) for a, b in zip(fast, band)) <= FOUR_ULP
