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
import numpy.polynomial.polynomial as npp

from .errors import HypothesisError, RootFindingError
from .kernel import ExponentialKernel
from .polyroots import RealPolynomial

#: Relative residual |g| / scale above which a mode eigenvalue is refused.
RESIDUAL_TOL = 1e-10

#: Mode eigenvalues with |Im| <= REAL_SNAP (1 + |z|) are made real.
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


def fredholm_factor_zeros(k: ExponentialKernel, bhat) -> list:
    """The N real zeros of 1 - bhat * Khat, one per pole gap, ascending.

    ``bhat`` is one damping level or a 1-D array of levels; an array gives
    one list of zeros per level.  An undamped level 0 has no zeros (an empty
    list).  On the gap (-b_j, -b_{j-1}), with b_0 := 0, Khat falls strictly
    from +inf to -inf (to Khat(0) = sum(a_j) when j = 1, where the
    dissipativity margin keeps the factor positive), so the factor rises
    through zero exactly once.  Each zero is bisected on the partial-fraction
    form in the offset d = lam + b_j, where the pole term a_j b_j / d carries
    no cancellation, until its bracket is two adjacent doubles: the secular
    equation technique of Bunch, Nielsen & Sorensen (Numer. Math. 31, 1978)
    and LAPACK dlaed4; one bisection serves every level.  The zero next to 0
    is conditioned like the inverse of the margin 1 - bhat * sum(a_j), so its
    relative error grows as the margin closes.
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
    lo = np.zeros(flat.size * n)
    hi = np.outer(flat > 0.0, np.diff(rates, prepend=0.0)).ravel()
    terms = np.empty_like(shifts)
    # a settled bracket keeps its bounds; its pole rows may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            live = (lo < mid) & (mid < hi)
            if not live.any():
                break
            np.add(mid[:, None], shifts, out=terms)
            np.divide(weights, terms, out=terms)
            below = np.sum(terms, axis=1) > 1.0
            np.copyto(lo, mid, where=live & below)
            np.copyto(hi, mid, where=live & ~below)
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
    """Degree N+2 polynomial (lam^2 + alpha) prod(lam+b_j) - beta * sum-term.

    Coefficients are assembled exactly by convolution, never by sampling.
    The mode solver does not use it; it is the independent oracle for the
    characteristic polynomial of the realization.  ``m`` holding 1-D arrays
    gives the ascending coefficients of all modes as one (M, N+3) array,
    one row per mode; the kernel's products are built once.
    """
    rates = np.asarray(k.rates)
    alpha = np.asarray(m.alpha, dtype=float).reshape(-1, 1)
    beta = np.asarray(m.beta, dtype=float).reshape(-1, 1)
    full = npp.polyfromroots(-rates).real
    acc = alpha * np.pad(full, (0, 2)) + np.pad(full, (2, 0))
    for j, (a, b) in enumerate(zip(k.amplitudes, k.rates)):
        without = npp.polyfromroots(-np.delete(rates, j)).real
        acc = acc - beta * a * b * np.pad(without, (0, 3))
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


def mode_spectra(k: ExponentialKernel, alphas, betas) -> list[np.ndarray]:
    """Eigenvalues of the modes (alphas[i], betas[i]), one array per mode.

    One ``np.linalg.eigvals`` call solves the stacked realizations.  At
    beta = 0 the memory variables decouple, N eigenvalues are the poles
    -b_j, and the N nearest the poles are dropped; for beta > 0 none sits
    at a pole.  Each eigenvalue takes at most three Newton steps on
    :func:`_near_pole_form`, each kept only where |f| falls; a kept step's
    form values serve the next step.  LAPACK returns conjugate pairs
    adjacent, positive part first; the second is reset to the conjugate of
    the first.  |Im| <= REAL_SNAP (1 + |z|) becomes real,
    |g| > RESIDUAL_TOL * scale raises :class:`RootFindingError`, and each
    array is sorted by (re, im).
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
        z = np.where(np.abs(z.imag) <= REAL_SNAP * (1.0 + np.abs(z)),
                     z.real + 0j, z)
        g = _near_pole_form(k, alpha, beta, z)[0]
        scale = _near_pole_scale(k, alpha, beta, z)
        bad = keep & ~(np.abs(g) <= RESIDUAL_TOL * scale)
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
