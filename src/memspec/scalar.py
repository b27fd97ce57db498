"""Scalar spectral functions of the memory-damped wave symbol.

For a kernel with Laplace transform Khat and a damping level bhat, the scalar
machinery revolves around the factor 1 - bhat * Khat(lam), whose zeros, the
eigenvalues of the kernel's N-square memory block, obstruct Fredholmness of
the symbol and sweep out the essential spectrum, and the per-mode rational
symbol lam^2 + alpha - beta * Khat(lam), whose roots are the eigenvalues of
the kernel's (N+2)-square realization; its cleared polynomial of degree
N + 2, an array of ascending coefficients, is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, RootFindingError
from .kernel import ExponentialKernel

#: Relative residual |g| / scale above which a mode eigenvalue is refused.
RESIDUAL_TOL = 1e-10

#: Mode eigenvalues with |Im| <= REAL_SNAP (1 + |z|) are made real where the
#: real point meets the residual bound.
REAL_SNAP = 1e-8


@dataclass(frozen=True)
class DampingBound:
    """Range [b_min, b_max] of the damping profile."""

    b_min: float
    b_max: float

    def __post_init__(self):
        if not 0.0 <= self.b_min <= self.b_max:
            raise ValueError(
                f"need 0 <= b_min <= b_max, got [{self.b_min}, {self.b_max}]"
            )

    @property
    def is_constant(self) -> bool:
        return self.b_min == self.b_max


@dataclass(frozen=True)
class ModeCoefficients:
    """Stiffness value alpha and damping value beta of a mode, or arrays."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not np.all(np.asarray(self.alpha) > 0.0):
            raise ValueError(f"alpha = {self.alpha} must be positive")
        if np.any(np.asarray(self.beta) < 0.0):
            raise ValueError(f"beta = {self.beta} must be nonnegative")


#: Offsets, in units of the spacing of doubles, of the points tested around
#: the Newton step before the bisection closes the bracket.
ZERO_LADDER = np.array([-1024.0, -256.0, -64.0, -16.0, -8.0, -4.0, -2.0,
                        -1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0])

#: Most ladder points tested at once.  A long sweep tests its brackets in
#: slices, so the stacked terms hold at most 6 MB at N = 12.
LADDER_CHUNK = 1 << 16


def _secular_test(weights, shifts, d):
    """The bisection's test sum_j weights / (d + shifts) > 1, row by row.

    ``d`` holds one offset per row of ``weights`` and ``shifts``, or a stack
    of such vectors.  Returns the test and the quotients.  Each row is
    summed over its own contiguous terms, so a row gives the same bits
    whatever the stack around it.
    """
    terms = d[..., None] + shifts
    np.divide(weights, terms, out=terms)
    return np.sum(terms, axis=-1) > 1.0, terms


def _narrow(lo, hi, d, below):
    """Move lo up to the points d that test below the zero and hi down to
    the others, counting only points strictly inside (lo, hi); ``d`` is a
    stack of vectors of one point per bracket."""
    inside = (lo < d) & (d < hi)
    np.maximum(lo, np.max(d, axis=0, initial=-np.inf,
                          where=inside & below), out=lo)
    np.minimum(hi, np.min(d, axis=0, initial=np.inf,
                          where=inside & ~below), out=hi)


def _newton_step(weights, shifts, lo, hi, d):
    """Test the points d, narrow lo and hi, and return the Newton step from
    d on d (sum_j weights / (d + shifts) - 1), exact for one pole term."""
    below, terms = _secular_test(weights, shifts, d)
    _narrow(lo, hi, d[None], below[None])
    total = np.sum(terms, axis=1)
    terms /= d[:, None] + shifts
    slope = d * np.sum(terms, axis=1)
    return d * slope / (slope + 1.0 - total)


def fredholm_factor_zeros(k: ExponentialKernel, bhat) -> list:
    """The N real zeros of 1 - bhat * Khat, one per pole gap, ascending.

    ``bhat`` is one damping level or a 1-D array of levels; an array gives
    one list of zeros per level, and a level 0 gives an empty list.  By the
    matrix determinant lemma, with c_j = sqrt(a_j b_j),
    det(lam + diag(b) - bhat c c^T) = prod(lam + b_j) (1 - bhat * Khat), so
    the zeros are the eigenvalues of the memory block M = bhat c c^T
    - diag(b), and Cauchy interlacing puts one in each gap (-b_j, -b_{j-1}),
    b_0 := 0, the first below 0 where the dissipativity margin is positive
    (Golub, SIAM Rev. 15, 1973).  Each zero is sought in the offset
    d = lam + b_j, where the pole term a_j b_j / d carries no cancellation,
    as the adjacent pair of doubles where the test sum(weights / (d +
    shifts)) > 1 changes.  That test is monotone in d under rounding (each
    quotient is monotone in d, and rounded addition is monotone in each
    argument), so the pair is unique and every sequence of test points
    strictly inside the bracket ends on it: the zeros are the bits of plain
    bisection.  The points are the eigenvalues of one batched
    ``np.linalg.eigvalsh`` of the (levels, N, N) stack of M, clipped into
    the brackets; one Newton step on d (sum(weights / (d + shifts)) - 1),
    kept where strictly inside the narrowed bracket, since an error of about
    eps * b_N puts many eigenvalues beyond the ladder and this form is exact
    for the pole term alone; the doubles ZERO_LADDER apart around the step,
    in stacked tests of LADDER_CHUNK points; and bisection for the rest.
    The zero next to 0 is conditioned like the inverse of the margin
    1 - bhat * sum(a_j), so its relative error grows as the margin closes.
    """
    levels = np.asarray(bhat, dtype=float)
    if not np.all(levels >= 0.0):
        raise ValueError(f"bhat = {bhat} must be nonnegative")
    top = levels.max(initial=0.0)
    if k.dissipativity_margin(top) <= 0.0:
        raise HypothesisError(
            f"dissipativity margin {k.dissipativity_margin(top)} <= 0 at "
            f"bhat = {top}"
        )
    flat, rates, n = levels.reshape(-1), np.asarray(k.rates), k.n_terms
    # bracket i is the gap i % n of the level flat[i // n], empty when the
    # level is 0; its rows: lam + b_j = d + shifts[i, j]
    scaled = flat[:, None] * np.asarray(k.amplitudes) * rates
    weights = np.repeat(scaled, n, axis=0)
    shifts = np.tile(rates[None, :] - rates[:, None], (flat.size, 1))
    width = np.outer(flat > 0.0, np.diff(rates, prepend=0.0)).ravel()
    lo, hi = np.zeros(flat.size * n), width.copy()
    root = np.sqrt(scaled)  # M = root root^T - diag(b), eigenvalues descend
    d = np.linalg.eigvalsh(root[:, :, None] * root[:, None, :]
                           - np.diag(rates))[:, ::-1].ravel()
    d = np.clip(d + np.tile(rates, flat.size), lo, hi)
    # settled brackets' pole rows may divide by zero; such steps are dropped
    with np.errstate(all="ignore"):
        step = _newton_step(weights, shifts, lo, hi, d)
        d = np.where((lo < step) & (step < hi), step, d)
        rows = LADDER_CHUNK // ZERO_LADDER.size
        for start in range(0, d.size, rows):
            part = slice(start, start + rows)
            ladder = d[part] + ZERO_LADDER[:, None] * np.spacing(d[part])
            _narrow(lo[part], hi[part], ladder, _secular_test(
                weights[part], shifts[part], ladder)[0])
        while True:
            mid = 0.5 * (lo + hi)
            if not ((lo < mid) & (mid < hi)).any():
                break
            _narrow(lo, hi, mid[None],
                    _secular_test(weights, shifts, mid)[0][None])
    zeros = (mid.reshape(-1, n) - rates)[:, ::-1].tolist()
    zeros = [row if level > 0.0 else [] for level, row in zip(flat, zeros)]
    return zeros if levels.ndim else zeros[0]


def rational_symbol(k: ExponentialKernel, m: ModeCoefficients, lam):
    """Partial-fraction mode symbol lam^2 + alpha - beta * Khat(lam),
    elementwise over arrays ``lam`` and ``m``."""
    if not np.any(m.beta):
        return lam * lam + m.alpha
    return lam * lam + m.alpha - m.beta * k.laplace(lam)


def cleared_mode_polynomial(k: ExponentialKernel, m: ModeCoefficients):
    """Degree N+2 polynomial (lam^2 + alpha) prod(lam+b_j) - beta * sum-term,
    where sum-term = sum_j a_j b_j prod_{i != j}(lam + b_i).

    Coefficients are assembled exactly by products, never by sampling.  The
    full product and the N leave-one-out products grow together, one rate
    at a time, as the rows of one (N+1, N+1) array (row j skips rate j, row
    N takes every rate), and the sum-term is one matrix product of the
    weights a_j b_j with the leave-one-out rows.  Every product coefficient
    is a sum of products of positive rates, so none carries cancellation.
    The mode solver does not use this polynomial; it is the independent
    oracle for the characteristic polynomial of the realization.  One mode
    gives its N+3 ascending coefficients as a 1-D array, evaluated by
    ``np.polyval(row[::-1], lam)``; ``m`` holding 1-D arrays gives all modes
    as one (M, N+3) array, one row per mode, from the same products.
    """
    rates = np.asarray(k.rates)
    alpha = np.asarray(m.alpha, dtype=float)[..., None]
    beta = np.asarray(m.beta, dtype=float)[..., None]
    prods = np.zeros((rates.size + 1, rates.size + 1))
    prods[:, 0] = 1.0
    for j, b in enumerate(rates):
        grown = b * prods
        grown[:, 1:] += prods[:, :-1]
        grown[j] = prods[j]
        prods = grown
    full = prods[-1]
    sum_term = (np.asarray(k.amplitudes) * rates) @ prods[:-1]
    return (alpha * np.pad(full, (0, 2)) + np.pad(full, (2, 0))
            - beta * np.pad(sum_term, (0, 2)))


def _pole_split(k: ExponentialKernel, z: np.ndarray):
    """The weights a_j b_j, the index of the pole -b_j nearest each z, the
    offsets z + b_j and the (N, ...) rows 1 / (z + b_i), zeroed at -b_j."""
    rates = np.asarray(k.rates)
    near = np.argmin(np.abs(z[..., None] + rates), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.add.outer(rates, z)
    np.put_along_axis(inv, near[None], 0.0, axis=0)
    return np.asarray(k.amplitudes) * rates, near, z + rates[near], inv


def _near_pole_form(k: ExponentialKernel, alpha, beta, z: np.ndarray):
    """g = f (z + b_j) for the mode symbol f and the pole -b_j nearest z.

    Returns g, g', |f| and the residual scale of g from one pass over the
    rows of :func:`_pole_split`.  Newton on g stays quadratic next to a
    pole.  The scale sums the terms of g in magnitude, with z + b_j replaced
    by |z| + b_j, since rounding in z itself can meet the bound.  The sums
    run from zero in rate order; np.sum over the rows could switch to
    pairwise summation and move the roots by an ulp.  At conj(z) the form
    gives conj(g), conj(g') and the same |f| and scale, bit for bit.
    """
    weights, near, offset, inv = _pole_split(k, z)
    reach = np.abs(z) + np.asarray(k.rates)[near]
    rest, rest_deriv, rest_size = np.zeros_like(z), np.zeros_like(z), 0.0
    for w, row in zip(weights, inv):
        rest += w * row
        rest_deriv += w * row * row
        rest_size += w * np.abs(row)
    value = (z * z + alpha) * offset - beta * (weights[near] + offset * rest)
    deriv = (2.0 * z * offset + z * z + alpha
             - beta * (rest - offset * rest_deriv))
    scale = ((np.abs(z) ** 2 + alpha) * reach
             + beta * (weights[near] + reach * rest_size))
    return value, deriv, np.abs(value / offset), scale


def root_counts(k: ExponentialKernel, betas) -> np.ndarray:
    """Roots per mode of :func:`mode_spectra`: N + 2 where beta > 0, and 2
    where beta = 0, whose symbol lam^2 + alpha has no memory term."""
    return np.where(np.asarray(betas) > 0.0, k.n_terms + 2, 2)


def mode_spectra(k: ExponentialKernel, alphas,
                 betas) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the modes (alphas[i], betas[i]): one flat array, mode
    after mode and sorted by (re, im) within each, and the count per mode.

    At beta = 0 the symbol is lam^2 + alpha, and its roots are written as
    -i sqrt(alpha), i sqrt(alpha).  One ``np.linalg.eigvals`` call solves
    the stacked realizations of the damped modes, N + 2 roots each.  LAPACK
    returns conjugate pairs adjacent, positive part first; only the
    eigenvalues with Im >= 0 are polished and checked, and each partner
    with Im < 0 takes the conjugate of the first and its verdict.  Each
    takes at most three Newton steps on :func:`_near_pole_form`, each kept
    only where |f| falls; a kept step's form values serve the next step,
    and a rejected step would repeat exactly, so only the eigenvalues whose
    last step was kept take the next.  |Im| <= REAL_SNAP (1 + |z|) becomes
    real where the real point meets the residual bound
    |g| <= RESIDUAL_TOL * scale of one more evaluation of the form, and
    stays complex where only the complex point does; a point that meets
    neither raises :class:`RootFindingError`.
    """
    rates = np.asarray(k.rates)
    alpha, beta = (np.asarray(v, dtype=float).ravel() for v in (alphas, betas))
    counts, damped = root_counts(k, beta), beta > 0.0
    out = np.empty((alpha.size, rates.size + 2), dtype=complex)
    out[:, :2] = np.sqrt(alpha)[:, None] * [-1j, 1j]  # real parts +0.0
    alpha, beta = alpha[damped, None], beta[damped, None]
    mats = k.realization(alpha[:, :, None], np.sqrt(beta)[:, :, None])
    raw = np.linalg.eigvals(mats).astype(complex)
    # LAPACK's absolute error is about eps times the norm, at least
    # eps * max(1, b_N), so where the small-lam model
    # lam^2 + beta s lam + alpha - beta sum(a_j), s = sum(a_j / b_j) (Khat
    # to first order at 0), puts both its roots below that (alpha under
    # about 1e-32), they replace the two eigenvalues nearest 0, as an
    # adjacent pair
    level = np.finfo(float).eps * max(1.0, rates[-1])
    half = 0.5 * beta[:, 0] * np.sum(np.divide(k.amplitudes, rates))
    product = alpha[:, 0] - beta[:, 0] * k.amplitude_sum
    small = (product <= level * level) & (half <= level)
    if small.any():
        root = np.sqrt(half[small] ** 2 - product[small] + 0j)
        nearest = np.argsort(np.argsort(np.abs(raw[small]), axis=1),
                             axis=1) < 2
        rows = np.take_along_axis(raw[small], np.argsort(
            nearest, axis=1, kind="stable"), axis=1)
        rows[:, -2], rows[:, -1] = root - half[small], -root - half[small]
        raw[small] = rows
    z = raw.ravel()
    lead = np.flatnonzero(z.imag >= 0.0)
    # a pair's second member directly follows the first
    partner = np.flatnonzero(z.imag < 0.0)
    modes = lead // raw.shape[1]
    alpha, beta = alpha[modes, 0], beta[modes, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        moving, at, a, b = lead, z[lead], alpha, beta
        g, dg, f, _ = _near_pole_form(k, a, b, at)
        for _ in range(3):
            step = at - g / dg
            g, dg, f_step, _ = _near_pole_form(k, a, b, step)
            took = f_step < f
            moving, at, a, b, g, dg, f = (
                v[took] for v in (moving, step, a, b, g, dg, f_step))
            z[moving] = at
            if not moving.size:
                break
        z[partner] = np.conj(z[partner - 1])
        snap = np.abs(z.imag) <= REAL_SNAP * (1.0 + np.abs(z))
        real = np.where(snap, z.real + 0j, z)
        ok = np.ones(z.shape, dtype=bool)
        g, _, _, scale = _near_pole_form(k, alpha, beta, real[lead])
        ok[lead] = np.abs(g) <= RESIDUAL_TOL * scale
        ok[partner] = ok[partner - 1]
        # a snapped pair whose real point fails stays a pair if that passes
        undo = ~ok & snap & (z.imag != 0.0)
        if undo.any():
            again = undo[lead]
            g, _, _, scale = _near_pole_form(k, alpha[again], beta[again],
                                             z[lead[again]])
            ok[lead[again]] = np.abs(g) <= RESIDUAL_TOL * scale
            ok[partner] = ok[partner - 1]
            real[undo] = z[undo]
        z = real.reshape(raw.shape)
    if not ok.all():
        raise RootFindingError(
            f"residual guarantee failed for mode eigenvalues "
            f"{z.ravel()[~ok]}", best=z)
    out[damped] = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=1),
                                     axis=1)
    return out[np.arange(out.shape[1]) < counts[:, None]], counts


def jordan_condition(k: ExponentialKernel, bhat: float, lam0):
    """Non-degeneracy value (2/lam0)(bhat*Khat - 1) - bhat*Khat' at real
    eigenvalues lam0 (a number or an array); nonzero means the Jordan chain
    has length one.

    Only the constant-damping specialization is evaluated here.
    """
    if np.any(lam0 == 0.0):
        raise ValueError("lam0 = 0 is excluded (the formula divides by lam0)")
    return ((2.0 / lam0) * (bhat * k.laplace(lam0).real - 1.0)
            - bhat * k.laplace_deriv(lam0).real)


def jordan_ratio(k: ExponentialKernel, beta, lam0):
    """|f'(lam0)| / (2 |lam0| + beta |Khat'(lam0)|) for the mode symbol
    f = lam^2 + alpha - beta Khat at a 1-D array of real lam0, free of the
    unit of time; at a root f' / alpha is :func:`jordan_condition`.  Both
    terms are scaled by (lam0 + b_j)^2 on :func:`_pole_split`."""
    weights, near, offset, inv = _pole_split(k, lam0)
    sq = offset * offset  # beta |Khat'| sq is a sum of positive terms
    slope = beta * (weights[near] + sq * (weights @ (inv * inv)))
    return np.abs(2.0 * lam0 * sq + slope) / (2.0 * np.abs(lam0) * sq + slope)
