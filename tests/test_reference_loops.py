"""The branch-zero bisection and the mode solver against reference loops.

The references are the earlier, slower forms of both loops, kept verbatim:
the bisection that gathers the live brackets' rows on every step, and the
Newton polish that evaluates the near-pole form at z and again at the step
(seven evaluations in all).  The library's loops must give the same bits on
wide-rate kernels.
"""

import numpy as np
import pytest

from memspec import ExponentialKernel, RootFindingError, scalar
from memspec.scalar import (
    REAL_SNAP,
    RESIDUAL_TOL,
    fredholm_factor_zeros,
    mode_spectra,
)


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
    """g, g', |f| and the residual scale, all from one evaluation."""
    rates = np.asarray(k.rates)
    weights = np.asarray(k.amplitudes) * rates
    near = np.argmin(np.abs(z[..., None] + rates), axis=-1)
    offset, reach = z + rates[near], np.abs(z) + rates[near]
    rest, rest_deriv, rest_size = np.zeros_like(z), np.zeros_like(z), 0.0
    for i, (w, b) in enumerate(zip(weights, rates)):
        inv = np.where(near == i, 0.0, 1.0 / (z + b))
        rest += w * inv
        rest_deriv += w * inv * inv
        rest_size += w * np.abs(inv)
    value = (z * z + alpha) * offset - beta * (weights[near] + offset * rest)
    deriv = (2.0 * z * offset + z * z + alpha
             - beta * (rest - offset * rest_deriv))
    scale = ((np.abs(z) ** 2 + alpha) * reach
             + beta * (weights[near] + reach * rest_size))
    return value, deriv, np.abs(value / offset), scale


def seven_evaluation_spectra(k, alphas, betas):
    """Mode eigenvalues with the form evaluated at z and at every step."""
    rates = np.asarray(k.rates)
    alpha = np.asarray(alphas, dtype=float).reshape(-1, 1)
    beta = np.asarray(betas, dtype=float).reshape(-1, 1)
    mats = k.realization(alpha[:, :, None], np.sqrt(beta)[:, :, None])
    z = raw = np.linalg.eigvals(mats).astype(complex)
    gap = np.abs(raw[..., None] + rates).min(axis=-1)
    rank = np.argsort(np.argsort(gap, axis=1), axis=1)
    keep = (beta > 0.0) | (rank >= k.n_terms)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            g, dg, f, _ = full_near_pole_form(k, alpha, beta, z)
            step = z - g / dg
            z = np.where(full_near_pole_form(k, alpha, beta, step)[2] < f,
                         step, z)
        z = np.where(raw.imag < 0.0, np.conj(np.roll(z, 1, axis=1)), z)
        z = np.where(np.abs(z.imag) <= REAL_SNAP * (1.0 + np.abs(z)),
                     z.real + 0j, z)
        g, _, _, scale = full_near_pole_form(k, alpha, beta, z)
        bad = keep & ~(np.abs(g) <= RESIDUAL_TOL * scale)
    if bad.any():
        raise RootFindingError("residual guarantee failed", best=z)
    z = np.where(keep, z, np.inf)
    z = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=1), axis=1)
    return [row[:count] for row, count in zip(z, keep.sum(axis=1))]


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


def test_mode_spectra_match_seven_evaluation_loop():
    rng = np.random.default_rng(9)
    for _ in range(300):
        k = wide_rate_kernel(rng)
        alphas = 10.0 ** rng.uniform(-1.0, 4.0, 6)
        betas = alphas * rng.uniform(0.0, 0.9, 6) / k.amplitude_sum
        betas[::3] = 0.0
        try:
            want = seven_evaluation_spectra(k, alphas, betas)
        except RootFindingError:
            with pytest.raises(RootFindingError):
                mode_spectra(k, alphas, betas)
            continue
        got = mode_spectra(k, alphas, betas)
        assert len(got) == len(want)
        for row, ref in zip(got, want):
            assert np.array_equal(row, ref)


def test_mode_spectra_evaluates_the_form_five_times(monkeypatch, k_two):
    # one evaluation at the eigvals start, one per Newton step, one check
    calls = []
    form = scalar._near_pole_form

    def counted(*args):
        calls.append(1)
        return form(*args)

    monkeypatch.setattr(scalar, "_near_pole_form", counted)
    mode_spectra(k_two, [3.0, 40.0], [1.0, 0.0])
    assert len(calls) == 5
