"""A 50-digit referee for the work statistics of a completed ladder extension.

It takes a wit operation's float blocks, gap, inverse temperature and system
levels, and the float input states, as exact numbers, and recomputes from
them, in the standard library's `decimal` at 50 significant digits:

- the ladder's N + 2 work masses and <w>, Var[w] (work (k' - k) delta),
- the output system marginal of R (x (x) b),
- Delta F = F(output system) - F(x), with F = <E> - S / beta,
- the theorem-2 terms A, B_main, B_appendix and the slack, as bounds.py
  defines them,
- the theorem-1 conditional band <e^{beta(w - f_s)}>_k of every column k.

Each block-vector product is taken entry by entry from the layout in
construction.py's docstring, with the vector recursions r01^i x and
r01^i r11 x; the band instead forms every distinct block of that layout as
a matrix and sums its entries.  No package kernel is used.  `relative_error` is the error
measure the tests and the change log use.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 50
FOUR_ULP = 8.9e-16  # four units in the last place at scale 1


def exact(value) -> Decimal:
    """The exact value of a float (or int) as a Decimal."""
    return Decimal(float(value))


def relative_error(approx: float, reference: Decimal) -> float:
    """|a - b| / max(|a|, |b|, 1), with the reference taken at full precision."""
    a = exact(approx)
    return float(abs(a - reference) / max(abs(a), abs(reference), Decimal(1)))


def _matvec(m, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Decimal(0)) for row in m]


def _free_energy(p, levels, beta):
    energy = sum((pi * e for pi, e in zip(p, levels)), Decimal(0))
    entropy = -sum((pi * pi.ln() for pi in p if pi > 0), Decimal(0))
    return energy - entropy / beta


def ladder_statistics(sub, num_quanta: int, x, b) -> dict:
    """Exact statistics of the ladder of `sub` at N = num_quanta on input x (x) b.

    x and b are probability vectors (floats); returns Decimals: `masses`
    (offsets -1..N), `avg_work`, `variance`, `sys_out` and `delta_F`.
    """
    n = num_quanta
    with localcontext() as ctx:
        ctx.prec = DIGITS
        blocks = {name: [[exact(v) for v in row] for row in getattr(sub, name)] for name in ("r00", "r01", "r10", "r11")}
        xs = [exact(v) for v in x]
        bs = [exact(v) for v in b]
        delta, beta = exact(sub.delta), exact(sub.beta)
        levels = [exact(v) for v in sub.system.levels]

        u = [xs]  # r01^i x
        y = [_matvec(blocks["r11"], xs)]  # r01^i r11 x
        for _ in range(n):
            u.append(_matvec(blocks["r01"], u[-1]))
            y.append(_matvec(blocks["r01"], y[-1]))
        r00_u = [_matvec(blocks["r00"], v) for v in u]
        r00_y = [_matvec(blocks["r00"], v) for v in y]
        r10_x = _matvec(blocks["r10"], xs)

        def column(k):
            """(k', R_{k' k} x) for the nonzero blocks of column k."""
            if k == 0:
                return [(kp, r00_u[kp]) for kp in range(n)] + [(n, u[n])]
            out = [(k - 1, r10_x)]
            if k < n:
                out += [(kp, r00_y[kp - k]) for kp in range(k, n)]
            return out + [(n, y[n - k])]

        d = len(xs)
        masses = [Decimal(0)] * (n + 2)
        sys_out = [Decimal(0)] * d
        for k in range(n + 1):
            if bs[k] == 0:
                continue
            for kp, v in column(k):
                for s in range(d):
                    sys_out[s] += bs[k] * v[s]
                masses[kp - k + 1] += bs[k] * sum(v, Decimal(0))
        first = sum((m * (j - 1) for j, m in enumerate(masses)), Decimal(0))
        second = sum((m * (j - 1) ** 2 for j, m in enumerate(masses)), Decimal(0))
        return {
            "masses": masses,
            "avg_work": delta * first,
            "variance": delta * delta * (second - first * first),
            "sys_out": sys_out,
            "delta_F": _free_energy(sys_out, levels, beta) - _free_energy(xs, levels, beta),
        }


def theorem2_statistics(sub, num_quanta: int, x, b, k_min: int = 1) -> dict:
    """ladder_statistics plus bounds.theorem2_bound's A, B terms and slack, exactly."""
    stats = ladder_statistics(sub, num_quanta, x, b)
    n = num_quanta
    with localcontext() as ctx:
        ctx.prec = DIGITS
        delta, beta = exact(sub.delta), exact(sub.beta)
        levels = [exact(v) for v in sub.system.levels]
        xs = [exact(v) for v in x]
        bs = [exact(v) for v in b]
        eps = [k * delta for k in range(n + 1)]

        weights = [(-beta * e).exp() for e in eps]
        z_w = sum(weights, Decimal(0))
        mean_eps = sum((w * e for w, e in zip(weights, eps)), Decimal(0)) / z_w
        e_max = max(levels)
        eta_s = sum(((-beta * e).exp() for e in levels), Decimal(0)) * (beta * e_max).exp()
        f_in = _free_energy(xs, levels, beta)

        a_term = Decimal(0)
        for k in range(k_min):
            if bs[k] > 0:
                eta_k = z_w * (beta * eps[k]).exp()
                a_term += bs[k] * (e_max - f_in - eta_s * eta_k * (eps[k] - mean_eps))
        tail = sum((bs[k] * (-beta * (k - k_min + 1) * delta).exp() for k in range(k_min, n + 1)), Decimal(0))
        b_main = (1 + tail).ln() / beta
        b_appendix = (1 + eta_s * tail).ln() / beta
        stats.update(
            A_term=a_term,
            B_term_main=b_main,
            B_term_appendix=b_appendix,
            slack=(-stats["delta_F"] + a_term + b_appendix) - stats["avg_work"],
        )
    return stats


def _matmul(a, b):
    return [[sum((a[i][j] * b[j][c] for j in range(len(b))), Decimal(0)) for c in range(len(b[0]))] for i in range(len(a))]


def conditional_band(sub, num_quanta: int) -> list:
    """Exact <e^{beta(w - f_s)}>_k for k = 0..N: the sum over column k's entries
    r(s'k'|sk) e^{beta (k' - k) delta} e^{-beta E_s}.

    The blocks are the matrices of construction.py's layout (r00 r01^i,
    r01^N, r10, r00 r01^i r11, r01^j r11, r11), each multiplied out at 50
    digits.  A block's weighted entry sum is taken once and reused in every
    column that holds the block.
    """
    n = num_quanta
    with localcontext() as ctx:
        ctx.prec = DIGITS
        blocks = {name: [[exact(v) for v in row] for row in getattr(sub, name)] for name in ("r00", "r01", "r10", "r11")}
        beta_delta = exact(sub.beta) * exact(sub.delta)
        g = [(-exact(sub.beta) * exact(e)).exp() for e in sub.system.levels]
        d = len(g)

        def weighted(block):
            return sum((block[s_out][s] * g[s] for s_out in range(d) for s in range(d)), Decimal(0))

        powers = [[[Decimal(int(i == j)) for j in range(d)] for i in range(d)]]  # r01^i
        for _ in range(n):
            powers.append(_matmul(powers[-1], blocks["r01"]))
        a = [weighted(_matmul(blocks["r00"], p)) for p in powers[:n]]  # r00 r01^i
        c = [weighted(_matmul(_matmul(blocks["r00"], p), blocks["r11"])) for p in powers[: n - 1]]  # r00 r01^i r11
        t = [weighted(_matmul(p, blocks["r11"])) for p in powers]  # r01^j r11
        r10 = weighted(blocks["r10"])
        factor = {j: (beta_delta * j).exp() for j in range(-1, n + 1)}  # e^{beta delta (k' - k)}

        def column(k):
            """(k' - k, weighted entry sum) for the nonzero blocks of column k."""
            if k == 0:
                return [(i, a[i]) for i in range(n)] + [(n, weighted(powers[n]))]
            return [(-1, r10)] + [(i, c[i]) for i in range(n - k)] + [(n - k, t[n - k])]

        return [sum((factor[j] * v for j, v in column(k)), Decimal(0)) for k in range(n + 1)]
