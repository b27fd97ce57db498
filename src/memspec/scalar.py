"""Scalar spectral functions of the memory-damped wave symbol.

For a kernel with Laplace transform Khat and a damping level bhat, the scalar
machinery revolves around the factor 1 - bhat * Khat(lam), whose zeros
obstruct Fredholmness of the symbol and sweep out the essential spectrum, and
the per-mode rational symbol lam^2 + alpha - beta * Khat(lam), whose roots
are the eigenvalues of the kernel's (N+2)-square realization; its cleared
polynomial of degree N + 2 is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, RootFindingError
from .kernel import ExponentialKernel
from .polyroots import RealPolynomial

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


#: Most steps of the two-pole model in :func:`fredholm_factor_zeros`.
ZERO_STEPS = 16

#: Offsets, in units of the spacing of doubles, of the points tested around
#: the last model step before the bisection closes the bracket.
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


def _model_step(weights, shifts, lo, hi, d, right, width):
    """Test the points d, narrow lo and hi by them, and return the zero of
    the two-pole model of 1 - bhat * Khat at d.

    The terms of the poles left of the gap are modelled as a + b_l / t,
    those right of it as a' + e_r / (t - width), each matching its value
    and slope at d (Bunch, Nielsen & Sorensen's "middle way").  The model's
    zero in (0, width) is the root of c t^2 + B t - b_l width, taken in a
    form with no cancellation.
    """
    below, terms = _secular_test(weights, shifts, d)
    _narrow(lo, hi, d[None], below[None])
    slopes = d[:, None] + shifts
    np.divide(terms, slopes, out=slopes)
    left_slope = np.sum(slopes, axis=1, where=~right)
    right_slope = np.sum(slopes, axis=1, where=right)
    e = d - width
    b_l, e_r = d * (d * left_slope), e * (e * right_slope)
    c = np.sum(terms, axis=1) - d * left_slope - e * right_slope - 1.0
    big_b, prod = b_l + e_r - c * width, b_l * width
    disc = np.sqrt(np.where(
        c > 0.0, big_b * big_b + 4.0 * c * prod,
        (b_l + c * width) ** 2 + e_r * (2.0 * (b_l - c * width) + e_r)))
    return 2.0 * prod / (big_b + disc)


def _model_zero(weights, shifts, lo, hi, right, width):
    """Test the midpoint of each bracket and then up to ZERO_STEPS zeros of
    the two-pole model, each clipped into the bracket (the midpoint where it
    is not finite), narrowing lo and hi; the last model zero.  The steps
    stop once each moves by at most 2^-27 of itself, after which the next
    model zero is within a few doubles of the zero."""
    d = 0.5 * (lo + hi)
    for _ in range(ZERO_STEPS):
        step = np.clip(_model_step(weights, shifts, lo, hi, d, right, width),
                       lo, hi)
        step = np.where(np.isfinite(step), step, 0.5 * (lo + hi))
        settled = np.abs(step - d) <= 2.0 ** -27 * step
        d = step
        if settled.all():
            break
    return d


def fredholm_factor_zeros(k: ExponentialKernel, bhat) -> list:
    """The N real zeros of 1 - bhat * Khat, one per pole gap, ascending.

    ``bhat`` is one damping level or a 1-D array of levels; an array gives
    one list of zeros per level.  An undamped level 0 has no zeros (an empty
    list).  On the gap (-b_j, -b_{j-1}), with b_0 := 0, Khat falls strictly
    from +inf to -inf (to Khat(0) = sum(a_j) when j = 1, where the
    dissipativity margin keeps the factor positive), so the factor rises
    through zero exactly once.  Each zero is sought in the offset
    d = lam + b_j, where the pole term a_j b_j / d carries no cancellation,
    as the adjacent pair of doubles where the test sum(weights / (d +
    shifts)) > 1 changes.  That test is monotone in d under rounding (each
    quotient is monotone in d, and rounded addition is monotone in each
    argument), so the pair is unique and every sequence of test points
    strictly inside the bracket ends on it: the zeros are the bits of plain
    bisection.  The points come from the secular equation technique of
    Bunch, Nielsen & Sorensen (Numer. Math. 31, 1978) and LAPACK dlaed4:
    the midpoint, then up to ZERO_STEPS zeros of the two-pole model
    (:func:`_model_step`), clipped into the bracket; then the doubles
    ZERO_LADDER apart around the last model zero, in one stacked test (in
    slices of LADDER_CHUNK points on long sweeps); and bisection closes what
    remains.  One search serves every level.  The
    zero next to 0 is conditioned like the inverse of the margin
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
    weights = np.repeat(flat[:, None] * np.asarray(k.amplitudes) * rates, n,
                        axis=0)
    shifts = np.tile(rates[None, :] - rates[:, None], (flat.size, 1))
    width = np.outer(flat > 0.0, np.diff(rates, prepend=0.0)).ravel()
    lo, hi = np.zeros(flat.size * n), width.copy()
    # the poles right of the gap; the first gap has none
    right = np.arange(n) < np.tile(np.arange(n), flat.size)[:, None]
    # a settled bracket keeps its bounds; its pole rows may divide by zero,
    # and a model step may overflow, which sends it back to the midpoint
    with np.errstate(all="ignore"):
        d = _model_zero(weights, shifts, lo, hi, right, width)
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
    oracle for the characteristic polynomial of the realization.  ``m``
    holding 1-D arrays gives the ascending coefficients of all modes as one
    (M, N+3) array, one row per mode; the kernel's products are built once.
    """
    rates = np.asarray(k.rates)
    alpha = np.asarray(m.alpha, dtype=float).reshape(-1, 1)
    beta = np.asarray(m.beta, dtype=float).reshape(-1, 1)
    prods = np.zeros((rates.size + 1, rates.size + 1))
    prods[:, 0] = 1.0
    for j, b in enumerate(rates):
        grown = b * prods
        grown[:, 1:] += prods[:, :-1]
        grown[j] = prods[j]
        prods = grown
    full = prods[-1]
    sum_term = (np.asarray(k.amplitudes) * rates) @ prods[:-1]
    acc = (alpha * np.pad(full, (0, 2)) + np.pad(full, (2, 0))
           - beta * np.pad(sum_term, (0, 2)))
    return acc if np.ndim(m.alpha) else RealPolynomial(tuple(acc[0]))


def _near_pole_form(k: ExponentialKernel, alpha, beta, z: np.ndarray):
    """g = f (z + b_j) for the mode symbol f and the pole -b_j nearest z.

    Returns g, g' and |f|.  Newton on g stays quadratic next to a pole.
    """
    rates = np.asarray(k.rates)
    weights = np.asarray(k.amplitudes) * rates
    near = np.argmin(np.abs(z[..., None] + rates), axis=-1)
    offset = z + rates[near]
    rest, rest_deriv = np.zeros_like(z), np.zeros_like(z)
    for i, (w, b) in enumerate(zip(weights, rates)):
        inv = np.where(near == i, 0.0, 1.0 / (z + b))
        rest += w * inv
        rest_deriv += w * inv * inv
    value = (z * z + alpha) * offset - beta * (weights[near] + offset * rest)
    deriv = (2.0 * z * offset + z * z + alpha
             - beta * (rest - offset * rest_deriv))
    return value, deriv, np.abs(value / offset)


def _near_pole_scale(k: ExponentialKernel, alpha, beta, z: np.ndarray):
    """The scale of g in :func:`_near_pole_form`: its terms in magnitude,
    with z + b_j replaced by |z| + b_j.  Rounding in z itself can meet
    |g| <= RESIDUAL_TOL * scale."""
    rates = np.asarray(k.rates)
    weights = np.asarray(k.amplitudes) * rates
    near = np.argmin(np.abs(z[..., None] + rates), axis=-1)
    reach, rest_size = np.abs(z) + rates[near], 0.0
    for i, (w, b) in enumerate(zip(weights, rates)):
        rest_size += w * np.abs(np.where(near == i, 0.0, 1.0 / (z + b)))
    return ((np.abs(z) ** 2 + alpha) * reach
            + beta * (weights[near] + reach * rest_size))


def _meets_residual(k: ExponentialKernel, alpha, beta, z: np.ndarray):
    """Where |g| <= RESIDUAL_TOL * scale for the form and scale of
    :func:`_near_pole_form` and :func:`_near_pole_scale`."""
    g = _near_pole_form(k, alpha, beta, z)[0]
    return np.abs(g) <= RESIDUAL_TOL * _near_pole_scale(k, alpha, beta, z)


def mode_spectra(k: ExponentialKernel, alphas, betas) -> list[np.ndarray]:
    """Eigenvalues of the modes (alphas[i], betas[i]), one array per mode.

    One ``np.linalg.eigvals`` call solves the stacked realizations.  At
    beta = 0 the memory variables decouple, N eigenvalues are the poles
    -b_j, and the N nearest the poles are dropped; for beta > 0 none sits
    at a pole.  Each eigenvalue takes at most three Newton steps on
    :func:`_near_pole_form`, each kept only where |f| falls; a kept step's
    form values serve the next step.  LAPACK returns conjugate pairs
    adjacent, positive part first; the second is reset to the conjugate of
    the first.  |Im| <= REAL_SNAP (1 + |z|) becomes real where the real
    point meets |g| <= RESIDUAL_TOL * scale, and stays complex where only
    the complex point does; a point that meets neither raises
    :class:`RootFindingError`.  Each array is sorted by (re, im).
    """
    rates = np.asarray(k.rates)
    alpha = np.asarray(alphas, dtype=float).reshape(-1, 1)
    beta = np.asarray(betas, dtype=float).reshape(-1, 1)
    mats = k.realization(alpha[:, :, None], np.sqrt(beta)[:, :, None])
    z = raw = np.linalg.eigvals(mats).astype(complex)
    gap = np.abs(raw[..., None] + rates).min(axis=-1)
    rank = np.argsort(np.argsort(gap, axis=1), axis=1)
    keep = (beta > 0.0) | (rank >= k.n_terms)
    with np.errstate(divide="ignore", invalid="ignore"):
        g, dg, f = _near_pole_form(k, alpha, beta, z)
        for _ in range(3):
            step = z - g / dg
            g_step, dg_step, f_step = _near_pole_form(k, alpha, beta, step)
            took = f_step < f
            z, g = np.where(took, step, z), np.where(took, g_step, g)
            dg, f = np.where(took, dg_step, dg), np.where(took, f_step, f)
        z = np.where(raw.imag < 0.0, np.conj(np.roll(z, 1, axis=1)), z)
        snap = np.abs(z.imag) <= REAL_SNAP * (1.0 + np.abs(z))
        real = np.where(snap, z.real + 0j, z)
        bad = keep & ~_meets_residual(k, alpha, beta, real)
        # a snapped pair whose real point fails stays a pair if that passes
        undo = bad & snap & (z.imag != 0.0)
        if undo.any():
            alpha_u, beta_u = (np.broadcast_to(v, z.shape)[undo]
                               for v in (alpha, beta))
            bad[undo] = ~_meets_residual(k, alpha_u, beta_u, z[undo])
            real[undo] = z[undo]
        z = real
    if bad.any():
        raise RootFindingError(
            f"residual guarantee failed for mode eigenvalues {z[bad]}",
            best=z)
    z = np.where(keep, z, np.inf)
    z = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=1), axis=1)
    return [row[:count] for row, count in zip(z, keep.sum(axis=1))]


def mode_eigenvalues(k: ExponentialKernel, m: ModeCoefficients) -> np.ndarray:
    """N+2 eigenvalues of one mode (2 when beta = 0), conjugate-closed and
    sorted by (re, im): a one-mode call of :func:`mode_spectra`."""
    return mode_spectra(k, [m.alpha], [m.beta])[0]


def jordan_condition(k: ExponentialKernel, bhat: float, lam0):
    """Non-degeneracy value (2/lam0)(bhat*Khat - 1) - bhat*Khat' at real
    eigenvalues lam0 (a number or an array); nonzero means the Jordan chain
    has length one.

    Only the constant-damping specialization is evaluated here.
    """
    if np.any(lam0 == 0.0):
        raise ValueError("lam0 = 0 is excluded (the formula divides by lam0)")
    kh = k.laplace(lam0).real if bhat != 0.0 else 0.0
    khp = k.laplace_deriv(lam0).real if bhat != 0.0 else 0.0
    return (2.0 / lam0) * (bhat * kh - 1.0) - bhat * khp


def real_imag_residual(k: ExponentialKernel, m: ModeCoefficients,
                       x: float, y: float) -> tuple[float, float]:
    """Residuals of the split real/imaginary system at x + iy.

    Both vanish exactly when x + iy is a non-real enclosure point for this
    (alpha, beta).  The first equation carries the factor 2y divided out.
    """
    res1 = 2.0 * x
    res2 = x * x - y * y + m.alpha
    for a, b in zip(k.amplitudes, k.rates):
        den = (x + b) ** 2 + y * y
        if den == 0.0:
            raise ValueError(f"exact pole hit at x = {x}, y = {y}")
        res1 += m.beta * a * b / den
        res2 -= m.beta * a * b * (x + b) / den
    return res1, res2
