"""The branch-zero search, the near-pole form, the FD residual sweep and
the FD log-derivative against reference loops.

The references are the earlier, slower forms of these loops, kept verbatim:
the bisection that gathers the live brackets' rows on every step, the
near-pole form that adds its terms in a Python loop over the rates, the
Thomas sweep and pivot loop that index the grid rows as u[i] (on the
d - o^2 / piv pivots of the library's one recurrence), and the float64
recurrence that carries the pivots' derivatives beside them.  The library's
loops must give the same bits on wide-rate kernels and on graded FD
stencils; its complex-step log-derivative, whose arithmetic differs, must
agree to 1e-10.
"""

import tracemalloc

import numpy as np
import pytest

from fd_recipes import graded_config
from memspec import (
    ExponentialKernel,
    SymTridiagonal,
    discretize_1d,
    nonlinear_eigenvalues_fd,
    pencil,
    scalar,
)
from memspec.enclosure import DAMPING_FLOOR
from memspec.scalar import fredholm_factor_zeros, mode_spectra


def gathered_bisection(k, bhat):
    """Branch zeros by the bisection that gathers the live brackets."""
    levels = np.asarray(bhat, dtype=float)
    flat, rates, n = levels.reshape(-1), np.asarray(k.rates), k.n_terms
    weights = flat[:, None] * np.asarray(k.amplitudes) * rates
    shifts = rates[None, :] - rates[:, None]
    lo = np.zeros(flat.size * n)
    hi = np.outer(flat > 0.0, np.diff(rates, prepend=0.0)).ravel()
    while True:
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((lo < mid) & (mid < hi))
        if live.size == 0:
            break
        d = mid[live]
        below = np.sum(weights[live // n] / (d[:, None] + shifts[live % n]),
                       axis=1) > 1.0
        lo[live] = np.where(below, d, lo[live])
        hi[live] = np.where(below, hi[live], d)
    zeros = (mid.reshape(-1, n) - rates)[:, ::-1].tolist()
    zeros = [row if level > 0.0 else [] for level, row in zip(flat, zeros)]
    return zeros if levels.ndim else zeros[0]


def full_near_pole_form(k, alpha, beta, z):
    """g, the residual scale and the Jordan ratio at real z (nan elsewhere),
    the terms added in a loop over the rates."""
    rates = np.asarray(k.rates)
    weights = np.asarray(k.amplitudes) * rates
    near = np.argmin(np.abs(z[..., None] + rates), axis=-1)
    offset, reach = z + rates[near], np.abs(z) + rates[near]
    rest, rest_size, curve = np.zeros_like(z), 0.0, 0.0
    for i, (w, b) in enumerate(zip(weights, rates)):
        inv = np.where(near == i, 0.0, 1.0 / (z + b))
        rest += w * inv
        rest_size += w * np.abs(inv)
        curve += w * (inv.real * inv.real)
    value = (z * z + alpha) * offset - beta * (weights[near] + offset * rest)
    scale = ((np.abs(z) ** 2 + alpha) * reach
             + beta * (weights[near] + reach * rest_size))
    sq = offset.real ** 2
    slope = beta * (weights[near] + sq * curve)
    jordan = np.where(z.imag == 0.0,
                      np.abs(2.0 * z.real * sq + slope)
                      / (2.0 * np.abs(z.real) * sq + slope), np.nan)
    return value, scale, jordan


def indexed_pivots(off, piv, tiny=None):
    """Tridiagonal LU pivots d_i - off_(i-1)^2 / piv_(i-1) by the loop that
    indexes piv[i]."""
    for i in range(1, piv.shape[0]):
        if tiny is not None:
            np.copyto(piv[i - 1], tiny, where=piv[i - 1] == 0.0)
        piv[i] -= off[i - 1] * off[i - 1] / piv[i - 1]
    if tiny is not None:
        np.copyto(piv[-1], tiny, where=piv[-1] == 0.0)
    return piv


def indexed_residuals(mat_a, mat_b, k, lam):
    """The FD residual check by the Thomas sweep that indexes u[i]."""
    eps = np.finfo(float).eps
    m, real = mat_a.shape[0], not np.iscomplexobj(lam)
    u = np.outer(np.random.default_rng(0).standard_normal(m),
                 np.ones_like(lam))
    with np.errstate(all="ignore"):
        khat = k.laplace(lam.astype(complex))
        khat = khat.real if real else khat

        def diag(cols=slice(None), out=None):
            out = np.multiply(khat[cols], mat_b.diag[:, None], out)
            out = np.subtract(mat_a.diag[:, None], out, out)
            return np.add(out, lam[cols] * lam[cols], out)

        off = mat_a.off[:, None] - khat * mat_b.off[:, None]
        piv = indexed_pivots(off, diag())
        zero = ~np.all(piv, axis=0)
        if zero.any():
            part = (off[:, zero], diag(zero))
            tiny = eps * np.abs(np.concatenate(part)).max(axis=0)
            piv[:, zero] = indexed_pivots(*part, tiny)
        mult = off / piv[:-1]
        for _ in range(2):
            u /= np.linalg.norm(u, axis=0)
            for i in range(1, m):
                u[i] -= mult[i - 1] * u[i - 1]
            u[-1] /= piv[-1]
            for i in range(m - 2, -1, -1):
                np.subtract(u[i], off[i] * u[i + 1], u[i])
                u[i] /= piv[i]
        t_u = np.multiply(diag(out=piv), u, piv)
        t_u[1:] += np.multiply(off, u[:-1], mult)
        t_u[:-1] += np.multiply(off, u[1:], mult)
        return np.linalg.norm(t_u, axis=0) / np.linalg.norm(u, axis=0)


def pivots_damping_rank(mat_b):
    """The Sturm count of A_b above m eps ||A_b||_inf by one
    :func:`pencil._pivots` pass on a (m, 1) column, two ufunc calls a row."""
    level = mat_b.shape[0] * np.finfo(float).eps * mat_b.norm_inf()
    piv = mat_b.diag[:, None] - level
    with np.errstate(all="ignore"):
        pencil._pivots(mat_b.off[:, None] ** 2, piv[1:], piv[0])
    return int(np.count_nonzero(piv > 0.0))


def every_row_residuals(lam, setup, m, size):
    """The FD residual check's column blocks over every row of ``lam``, of
    the ``size`` roots before the cap, the conjugate rows swept too rather
    than copied from their partners."""
    cols = max(1, pencil.ROW_BLOCK // m)
    real = (lam.imag == 0.0) & (size > cols)
    res = np.empty(lam.size)
    for half, part in ((real, lam[real].real), (~real, lam[~real])):
        if part.size:
            res[half] = np.concatenate([
                pencil._residuals(block, setup) for block in np.array_split(
                    part, -(-part.itemsize * part.size // (16 * cols)))])
    return res


def dual_log_derivative(z, mat_a, mat_b, k, rank):
    """p'/p by the float64 dual recurrence for real z: the pivots and their
    derivatives side by side, six ufunc calls per grid row."""
    rates = np.asarray(k.rates)
    inv = 1.0 / np.add.outer(rates, z)
    khat, d_khat = np.zeros_like(z), np.zeros_like(z)
    for w, row in zip(np.asarray(k.amplitudes) * rates, inv):  # rate order
        khat += w * row
        d_khat -= w * row * row
    total = rank * np.sum(inv, axis=0)
    # o_i couples rows i - 1 and i; row 0 follows an uncoupled piv = 1
    (al, ad), (bl, bd) = ((np.concatenate(([0.0], mat.off))[:, None],
                           mat.diag[:, None]) for mat in (mat_a, mat_b))
    rows = max(8, pencil.ROW_BLOCK // max(z.size, 1))
    z_sq, z_2, d_khat_2 = z * z, 2.0 * z, -2.0 * d_khat
    piv, d_piv = np.ones_like(z), np.zeros_like(z)
    q, t = np.empty_like(z), np.empty_like(z)
    bufs = np.empty((4, min(rows, ad.size)) + z.shape, z.dtype)
    for start in range(0, ad.size, rows):
        block = slice(start, start + rows)
        diag, d_diag, off_sq, d_off_sq = bufs[:, :ad[block].size]
        np.subtract(ad[block], np.multiply(khat, bd[block], diag), diag)
        diag += z_sq
        np.subtract(z_2, np.multiply(d_khat, bd[block], d_diag), d_diag)
        np.subtract(al[block], np.multiply(khat, bl[block], off_sq), off_sq)
        np.multiply(np.multiply(d_khat_2, bl[block], d_off_sq), off_sq,
                    d_off_sq)
        off_sq *= off_sq
        for o_sq, d_o_sq, d, d_d in zip(off_sq, d_off_sq, diag, d_diag):
            np.divide(o_sq, piv, q)
            np.multiply(q, d_piv, t)
            np.subtract(d_o_sq, t, t)
            np.divide(t, piv, t)
            piv = np.subtract(d, q, d)
            d_piv = np.subtract(d_d, t, d_d)
        piv, d_piv = piv.copy(), d_piv.copy()  # out of the reused rows
        total += np.sum(np.divide(d_diag, diag, d_diag), axis=0)
    return total


def wide_rate_kernel(rng):
    """N <= 12 terms, rates over 1e-3..1e3, amplitudes over 1e-3..1."""
    n = int(rng.integers(1, 13))
    rates = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n))
    return ExponentialKernel(tuple(10.0 ** rng.uniform(-3.0, 0.0, n)),
                             tuple(rates))


def test_bisection_matches_gathered_loop():
    rng = np.random.default_rng(8)
    for _ in range(300):
        k = wide_rate_kernel(rng)
        count = int(rng.choice([2, 9]))
        levels = rng.uniform(0.0, 0.95, count) / k.amplitude_sum
        levels[rng.integers(count)] = 0.0 if rng.uniform() < 0.2 else 1e-8
        assert fredholm_factor_zeros(k, levels) == \
            gathered_bisection(k, levels)
        assert fredholm_factor_zeros(k, levels[-1]) == \
            gathered_bisection(k, levels[-1])


def test_bisection_matches_gathered_loop_on_hard_kernels():
    # a term scaled by 1e-6 puts a zero next to its pole, a level within
    # 1e-12 of the margin puts the first zero next to 0, a level of 1e-300
    # puts every zero next to its pole, and 65 levels make a long sweep
    rng = np.random.default_rng(10)
    for trial in range(200):
        k = wide_rate_kernel(rng)
        if trial % 4 == 0:
            amps = np.array(k.amplitudes)
            amps[rng.integers(k.n_terms)] *= 1e-6
            k = ExponentialKernel(tuple(amps), k.rates)
        count = 65 if trial % 4 == 3 else int(rng.choice([2, 9]))
        levels = rng.uniform(0.0, 0.95, count) / k.amplitude_sum
        if trial % 4 == 1:
            levels[rng.integers(count)] = \
                (1.0 - 1e-12 * rng.uniform()) / k.amplitude_sum
        if trial % 4 == 2:
            levels[rng.integers(count)] = 1e-300
        assert fredholm_factor_zeros(k, levels) == \
            gathered_bisection(k, levels)
    # the memory block's eigenvalues err by about eps * b_N, far more than
    # the narrow gaps of rates over 99 decades; two rates one ulp apart
    # leave a gap of one double
    for rates in [(0.1, 1.0, 1e99), (1e-3, 1e100),
                  (1.0, np.nextafter(1.0, 2.0))]:
        k = ExponentialKernel((1.0,) * len(rates), rates)
        top = 1.0 / k.amplitude_sum
        levels = np.array([1e-300, 1e-8, 0.5 * top, top - 1e-12])
        for bhat in (levels, *levels):
            assert fredholm_factor_zeros(k, bhat) == \
                gathered_bisection(k, bhat)


def test_branch_zeros_take_few_evaluations(monkeypatch, k_two):
    # the gathered bisection takes 53 or more steps on each of these calls
    calls = []
    test = scalar._secular_test

    def counted(*args):
        calls.append(1)
        return test(*args)

    monkeypatch.setattr(scalar, "_secular_test", counted)
    twelve = ExponentialKernel((0.05,) * 12,
                               tuple(np.geomspace(1e-3, 3e2, 12)))
    rng = np.random.default_rng(11)
    kernels = [k_two, twelve] + [wide_rate_kernel(rng) for _ in range(100)]
    for k in kernels:
        levels = np.sort(rng.uniform(0.0, 0.95, 2)) / k.amplitude_sum
        # the damping floor puts each zero next to its pole
        for bhat in (levels, levels[-1], np.r_[DAMPING_FLOOR, levels]):
            calls.clear()
            fredholm_factor_zeros(k, bhat)
            assert 0 < len(calls) <= 8


def test_branch_zeros_bisect_on_middle_doubles(monkeypatch):
    # at level 1e-300 each zero lies within about 1e-300 of its pole; the
    # arithmetic midpoint halves a bracket about 1070 times to get there,
    # and the middle double of the bit patterns at most 64 times
    points = []
    test = scalar._secular_test

    def counted(weights, shifts, d):
        points.append(d.size)
        return test(weights, shifts, d)

    monkeypatch.setattr(scalar, "_secular_test", counted)
    for rates in [(1e-3, 1.0, 1e3), (0.1, 0.2, 0.3), (1.0, 10.0, 100.0)]:
        k = ExponentialKernel((0.5, 0.3, 0.2), rates)
        points.clear()
        assert fredholm_factor_zeros(k, 1e-300) == \
            gathered_bisection(k, 1e-300)
        assert sum(points) <= 3 * (1 + scalar.ZERO_LADDER.size + 64)


def test_longest_sweep_memory():
    # the CLI's largest --sweep on the 12-term kernel: the (levels, N, N)
    # block stack is the size of the weights
    twelve = ExponentialKernel((0.05,) * 12,
                               tuple(np.geomspace(1e-3, 3e2, 12)))
    levels = np.linspace(0.0, 0.95, 10_000) / twelve.amplitude_sum
    tracemalloc.start()
    try:
        fredholm_factor_zeros(twelve, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 70e6


def test_mode_roots_take_few_passes(monkeypatch, k_one, k_two):
    # the rate-gap kernels (0.1, 0.1; 1, g), g = 1e4..1e40, whose start
    # filter's level eps * g spans the slow gap from g of about 1e16 on, so
    # that gap starts at the pole term's root, and alpha down to 1e-299,
    # where the gap roots lie about beta from their poles and the pair about
    # sqrt(alpha) from 0, at most 12 passes; and 300 modes with N - 1
    # clustered slow rates and one fast rate of 1e8..1e16, where roots sit
    # next to a gap's right pole, at most 17; each mode alone, so the passes
    # are its own.  The branch-zero starts and the stop after a step of at
    # most 1e-6 d_j take at most 2, 1 and 7 passes on these families
    passes = []
    step = scalar._gap_step

    def counted(*args):
        passes.append(1)
        return step(*args)

    monkeypatch.setattr(scalar, "_gap_step", counted)
    modes = [(ExponentialKernel((0.1, 0.1), (1.0, gap)), alpha, 0.45 * alpha)
             for gap in 10.0 ** np.arange(4, 41)
             for alpha in (np.pi ** 2, 2.0 * np.pi ** 2, 1e3)]
    modes += [(k, np.pi ** 2 / side ** 2, bhat * np.pi ** 2 / side ** 2)
              for side in (1e10, 1e24, 1e50, 1e100, 1e150)
              for k in (k_one, k_two) for bhat in (0.5, 0.75)]
    rng, clustered = np.random.default_rng(2024), []
    for _ in range(300):
        n = int(rng.integers(2, 11))
        rates = np.append(np.sort(rng.uniform(0.1, 1.0, n - 1)),
                          10.0 ** rng.uniform(8.0, 16.0))
        amps = 10.0 ** rng.uniform(-3.0, 0.0, n)
        alpha = 10.0 ** rng.uniform(-1.0, 4.0)
        beta = alpha * rng.uniform(0.05, 0.9) / amps.sum()
        clustered.append((ExponentialKernel(tuple(amps), tuple(rates)),
                          alpha, beta))
    for group, bound in ((modes, 12), (clustered, 17)):
        for k, alpha, beta in group:
            passes.clear()
            mode_spectra(k, [alpha], [beta])
            assert 0 < len(passes) <= bound


def test_pole_split_nearest_pole_by_the_real_part(benchmark_run):
    # |z + b_j|^2 = (Re z + b_j)^2 + (Im z)^2, so the pole nearest Re z is
    # the pole nearest z: _pole_split's choice by the real part is the
    # loop's choice by the modulus wherever the two smallest moduli differ
    # by more than their rounding, on the benchmark's mode roots and on
    # seeded points at, near and between the poles, real and complex
    cases = list(benchmark_run[2])
    rng = np.random.default_rng(36)
    for n in range(2, 13):
        rates = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n))
        k = ExponentialKernel(tuple(10.0 ** rng.uniform(-3.0, 0.0, n)),
                              tuple(rates))
        mids = -0.5 * (rates[1:] + rates[:-1])
        re = np.concatenate((-rates, -rates * (1.0 + 1e-9), mids,
                             mids * (1.0 + 1e-12 * rng.standard_normal(
                                 n - 1)), -1.1 * rates[-1] * rng.uniform(
                                     size=50)))
        im = np.concatenate((np.zeros(re.size), 10.0 ** rng.uniform(
            -12.0, 3.0, re.size)))
        cases.append((k, np.concatenate((re, re)) + 1j * im))
    clear = 0
    for k, z in cases:
        if k.n_terms == 1:
            continue
        dist = np.abs(z[:, None] + np.asarray(k.rates))
        first, second = np.sort(dist, axis=1)[:, :2].T
        apart = second - first > 4.0 * np.finfo(float).eps * second
        got = scalar._pole_split(k, z)[1]
        assert np.array_equal(got[apart], np.argmin(dist, axis=1)[apart])
        clear += np.count_nonzero(apart)
    assert clear > 30_000


@pytest.mark.parametrize("n_terms", [*range(1, 13), "twelve-term"])
def test_near_pole_form_sums_in_rate_order(monkeypatch, n_terms):
    # the form's sums down the term rows give the bytes of the loop that
    # adds the terms one by one in rate order, signed zeros
    # included, at single points and in batches, in one column block and
    # in many; np.sum over the rows, pairwise at one point, fails at N >= 4
    rng = np.random.default_rng(21)
    if n_terms == "twelve-term":  # the benchmark's twelve-term kernel
        k = ExponentialKernel((0.05,) * 12,
                              tuple(np.geomspace(1e-3, 3e2, 12)))
    else:
        rates = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n_terms))
        k = ExponentialKernel(tuple(10.0 ** rng.uniform(-3.0, 0.0, n_terms)),
                              tuple(rates))
    rates = np.asarray(k.rates)
    # real points (Im +0 and -0) left of, between and at the poles, and
    # complex points near the poles and far from them
    real = np.concatenate((-rates, -rates * (1.0 + 1e-9), -rates * 0.7,
                           -2.0 * rates[-1] * rng.uniform(size=20),
                           rng.uniform(-1.0, 1.0, 10)))
    near = -rng.choice(rates, 40) * (1.0 + 1e-6 * rng.standard_normal(40))
    z = np.concatenate((real + 0j, real - 0j,
                        near + 1e-7j * rng.standard_normal(40),
                        10.0 ** rng.uniform(-3.0, 3.0, 60) * np.exp(
                            1j * rng.uniform(-np.pi, np.pi, 60))))
    alpha = 10.0 ** rng.uniform(-2.0, 5.0, z.size)
    beta = alpha * rng.uniform(0.0, 0.99, z.size) / k.amplitude_sum
    with np.errstate(divide="ignore", invalid="ignore"):
        want = [np.concatenate(v) for v in zip(*(
            full_near_pole_form(k, alpha[i:i + 1], beta[i:i + 1], z[i:i + 1])
            for i in range(z.size)))]
        single = [np.concatenate(v) for v in zip(*(
            scalar._near_pole_form(k, alpha[i:i + 1], beta[i:i + 1],
                                   z[i:i + 1]) for i in range(z.size)))]
        batch = scalar._near_pole_form(k, alpha, beta, z)
        monkeypatch.setattr(scalar, "LADDER_CHUNK", 7 * k.n_terms)
        blocks = scalar._near_pole_form(k, alpha, beta, z)
    for got in (single, batch, blocks):
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_residual_sweep_matches_indexed_loop(k_two):
    # a graded two-term problem's own eigenvalues, real and complex, in
    # blocks of two columns and whole; a real and a complex lam whose pivot
    # is exactly zero and is repaired; a zero first pivot among others
    n = 100
    mat_a, mat_b = discretize_1d(1.0, np.linspace(0.5, 0.75, n), n)
    lam, _ = nonlinear_eigenvalues_fd(mat_a, mat_b, k_two, imag_cap=np.inf)
    real, cplx = lam[lam.imag == 0.0].real, lam[lam.imag != 0.0]
    assert real.size >= 100 and cplx.size >= 100
    cases = [(mat_a, mat_b, k_two, part) for part in (
        real[:2], real[7:9], real, cplx[:2], cplx[50:52], cplx, lam)]
    one = ExponentialKernel((1.0,), (1.0,))
    cases += [(*discretize_1d(2.0, np.full(3, 0.53125), 3, 4.0), one, lam)
              for lam in (np.array([-0.5, -2.75]),
                          np.array([-2.75, -0.5, 0.3]),
                          np.array([-0.5 + 0j, -2.75]))]
    cases.append((*discretize_1d(2.0, np.zeros(3), 3, 4.0), k_two,
                   np.array([2j, -2j, 0.3 + 2.5j, 0.3 - 2.5j])))
    for mat_a, mat_b, k, part in cases:
        setup = pencil._sweep_setup(mat_a, mat_b, k, 0)
        got = pencil._residuals(part, setup)
        assert got.tobytes() == indexed_residuals(mat_a, mat_b, k,
                                                  part).tobytes()


@pytest.mark.parametrize("row_block", [pencil.ROW_BLOCK, 2000],
                         ids=["one-block", "split-blocks"])
def test_fd_residuals_match_sweeping_every_row(k_two, monkeypatch, row_block):
    # graded draws at caps 5, 50 and none; the n = 100 two-term grid with a
    # cap that keeps one pair beside 100 real roots; an undamped grid whose
    # cap keeps one pair and no real root: the residuals of
    # nonlinear_eigenvalues_fd, each conjugate row's copied from its
    # partner, are the bits of sweeping every row
    monkeypatch.setattr(pencil, "ROW_BLOCK", row_block)
    rng = np.random.default_rng(8)
    cases = [(*graded_config(rng, 300), cap) for _ in range(6)
             for cap in (5.0, 50.0, np.inf)]
    mat_a, mat_b = discretize_1d(1.0, np.linspace(0.5, 0.75, 100), 100)
    upper = np.unique(nonlinear_eigenvalues_fd(mat_a, mat_b, k_two,
                                               np.inf)[0].imag)
    upper = upper[upper > 0.0]
    cases.append((k_two, mat_a, mat_b, 0.5 * (upper[0] + upper[1])))
    cases.append((k_two, *discretize_1d(1.0, np.zeros(40), 40), 5.0))
    pairs = []
    for k, mat_a, mat_b, cap in cases:
        lam, res = nonlinear_eigenvalues_fd(mat_a, mat_b, k, cap)
        m = mat_a.shape[0]
        setup = pencil._sweep_setup(mat_a, mat_b, k, 0)
        want = every_row_residuals(
            lam, setup, m, 2 * m + k.n_terms * pencil._damping_rank(mat_b))
        assert res.tobytes() == want.tobytes()
        pairs.append(np.count_nonzero(lam.imag > 0.0))
    assert pairs[-2:] == [1, 1] and max(pairs) > 50


def test_damping_rank_matches_pivots_count():
    # the scalar loop against the (m, 1) pivot pass: random bands of either
    # sign, graded and rank-deficient profiles, A_b = 0, one and two rows,
    # and bands whose second pivot is exactly zero (followed by a coupled
    # row, so -inf, and by an uncoupled one, so NaN from 0 / 0)
    rng = np.random.default_rng(31)
    mats = [SymTridiagonal(rng.normal(0.0, 1.0, m), rng.normal(0.0, 1.0,
                                                                m - 1))
            for m in (1, 2, *rng.integers(3, 200, 20))]
    mats += [graded_config(rng, 600)[2] for _ in range(40)]
    x = np.arange(1, 51) / 51
    mats += [discretize_1d(1.0, profile, 50)[1] for profile in (
        np.clip(x - 0.4, 0.0, None), np.clip(0.6 - x, 0.0, None),
        np.where(np.abs(x - 0.5) < 0.2, 0.0, 1.0), np.zeros(50))]
    eps = np.finfo(float).eps
    for coupled in (1.5, 0.0):
        # row 3 fixes ||A_b||_inf = 100 and the level 4 eps 100; d_1 is
        # moved by ulps until d_1 - level is the first quotient exactly
        diag, off = np.array([2.0, 0.0, 1.0, 99.0]), np.array([1.5, coupled,
                                                                1.0])
        level = 4 * eps * 100.0
        quot = off[0] ** 2 / (diag[0] - level)
        diag[1] = quot + level
        while diag[1] - level != quot:
            diag[1] = np.nextafter(diag[1], np.inf if diag[1] - level < quot
                                   else -np.inf)
        mat = SymTridiagonal(diag, off)
        assert mat.norm_inf() == 100.0
        mats.append(mat)
    for mat in mats:
        assert pencil._damping_rank(mat) == pivots_damping_rank(mat)
    assert [pivots_damping_rank(mat) for mat in mats[-2:]] == [2, 1]


def test_pivots_match_indexed_loop():
    # single and many columns, real and complex, with zero pivots repaired,
    # from a carried pivot (the first row's coupling to it), in one call and
    # in two calls that carry the first one's last pivot on
    rng = np.random.default_rng(14)
    for cols, dtype in ((1, float), (5, float), (6, complex)):
        off = rng.standard_normal((41, cols)).astype(dtype)
        diag = rng.standard_normal((42, cols)).astype(dtype)
        diag[[0, 17]] = 0.0
        if dtype is complex:
            off += 1j * rng.standard_normal(off.shape)
        for tiny in (None, np.full(cols, 1e-300)):
            with np.errstate(all="ignore"):  # unrepaired, a zero pivot
                want = indexed_pivots(off, diag.copy(), tiny)
                got = diag.copy()
                last = pencil._pivots(off * off, got[1:], got[0], tiny)
                split = diag.copy()
                carry = pencil._pivots(off[:20] ** 2, split[1:21], split[0],
                                       tiny).copy()
                pencil._pivots(off[20:] ** 2, split[21:], carry, tiny)
            assert got.tobytes() == want.tobytes()
            assert split.tobytes() == want.tobytes()
            assert last.tobytes() == want[-1].tobytes()


def test_complex_step_matches_dual_loop():
    # real points on graded stencils with wide-rate kernels, a quarter with
    # a vanishing stretch (r < n), 1e-6 relative or more away from the
    # roots and poles: the complex step gives the dual loop's p'/p to 1e-10
    rng = np.random.default_rng(15)
    for trial in range(40):
        k = wide_rate_kernel(rng)
        n = int(rng.integers(3, 300 // (k.n_terms + 2) + 1))
        samples = rng.uniform(0.3, 0.9, int(rng.integers(2, 6)))
        if trial % 4 == 0:
            samples[:2] = 0.0
        profile = np.interp(np.arange(1, n + 1) / (n + 1),
                            np.linspace(0.0, 1.0, samples.size),
                            samples / k.amplitude_sum)
        mat_a, mat_b = discretize_1d(10.0 ** rng.uniform(-1.0, 1.0), profile,
                                     n)
        rank = pencil._damping_rank(mat_b)
        damp, vecs = np.linalg.eigh(mat_b.toarray())
        keep = damp > n * np.finfo(float).eps * damp.max()
        lam = np.linalg.eigvals(k.realization(
            mat_a.toarray(), np.sqrt(damp[keep])[:, None] * vecs[:, keep].T))
        avoid = np.concatenate((lam[lam.imag == 0.0].real,
                                -np.asarray(k.rates)))
        x = -10.0 ** rng.uniform(-4.0, 1.0, 200) * np.max(np.abs(avoid))
        x = x[np.min(np.abs(x[:, None] - avoid), axis=1) > 1e-6 * np.abs(x)]
        setup = pencil._sweep_setup(mat_a, mat_b, k, rank)
        got, _ = pencil._log_derivative(x, np.empty(0, complex), setup)
        want = dual_log_derivative(x, mat_a, mat_b, k, rank)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
