"""Scalar spectral functions of the memory-damped wave symbol.

For a kernel with Laplace transform Khat and a damping level bhat, the scalar
machinery revolves around the factor 1 - bhat * Khat(lam) (which controls
Fredholmness of the symbol), the map lam -> -lam^2 / (1 - bhat * Khat(lam))
into the stiffness spectrum, and the per-mode rational symbol
lam^2 + alpha - beta * Khat(lam) whose cleared-denominator form is a real
polynomial of degree N + 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import HypothesisError, SingularDenominatorError
from .kernel import POLE_GUARD, ExponentialKernel
from .polyroots import RealPolynomial, all_roots

#: Denominator magnitude below which the spectral map is considered singular.
SINGULARITY_GUARD = 1e-12

#: Distance from a pole below which a cleared-polynomial root is suspect.
SPURIOUS_DISTANCE = 1e-8


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
    """Scalar mode data: stiffness value alpha and damping value beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha = {self.alpha} must be positive")
        if self.beta < 0.0:
            raise ValueError(f"beta = {self.beta} must be nonnegative")

    def check_bounds(self, d: DampingBound) -> None:
        if not d.b_min * self.alpha <= self.beta <= d.b_max * self.alpha:
            raise ValueError(
                f"beta = {self.beta} outside "
                f"[{d.b_min * self.alpha}, {d.b_max * self.alpha}]"
            )


def fredholm_factor(k: ExponentialKernel, bhat: float, lam: complex) -> complex:
    """The factor 1 - bhat * Khat(lam) whose zeros obstruct Fredholmness."""
    if bhat == 0.0:
        return 1.0
    return 1.0 - bhat * k.laplace(lam)


def fredholm_factor_zeros(k: ExponentialKernel, bhat: float) -> list[float]:
    """The N real zeros of 1 - bhat * Khat, one per pole gap, ascending.

    On the gap (-b_j, -b_{j-1}), with b_0 := 0, Khat falls strictly from
    +inf to -inf (to Khat(0) = sum(a_j) when j = 1, where the dissipativity
    margin keeps the factor positive), so the factor rises through zero
    exactly once.  Each zero is bisected on the partial-fraction form in the
    offset d = lam + b_j, where the pole term a_j b_j / d carries no
    cancellation, until its bracket is two adjacent doubles: the secular
    equation technique of Bunch, Nielsen & Sorensen (Numer. Math. 31, 1978)
    and LAPACK dlaed4.  The zero next to 0 is conditioned like the inverse
    of the margin 1 - bhat * sum(a_j), so its relative error grows as the
    margin closes.
    """
    if bhat == 0.0:
        return []
    if not bhat > 0.0:
        raise ValueError(f"bhat = {bhat} must be nonnegative")
    if k.dissipativity_margin(bhat) <= 0.0:
        raise HypothesisError(
            f"dissipativity margin {k.dissipativity_margin(bhat)} <= 0 at "
            f"bhat = {bhat}"
        )
    rates = np.asarray(k.rates)
    weights = bhat * np.asarray(k.amplitudes) * rates
    shifts = rates[None, :] - rates[:, None]  # row j: lam + b_i = d + shifts
    lo = np.zeros(k.n_terms)
    hi = np.diff(rates, prepend=0.0)
    while True:
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((lo < mid) & (mid < hi))
        if live.size == 0:
            break
        d = mid[live]
        below = np.sum(weights / (d[:, None] + shifts[live]), axis=1) > 1.0
        lo[live] = np.where(below, d, lo[live])
        hi[live] = np.where(below, hi[live], d)
    return (mid - rates)[::-1].tolist()


def spectral_map(k: ExponentialKernel, bhat: float, lam: float) -> float:
    """Map lam to the stiffness value -lam^2 / (1 - bhat * Khat(lam)).

    A real lam belongs to the spectral enclosure exactly when this value hits
    the stiffness spectrum.
    """
    f = fredholm_factor(k, bhat, lam)
    if abs(f) < SINGULARITY_GUARD:
        raise SingularDenominatorError(
            f"1 - bhat*Khat vanishes at lam = {lam} (|f| = {abs(f)})"
        )
    return -lam * lam / f


def rational_symbol(k: ExponentialKernel, m: ModeCoefficients,
                    lam: complex) -> complex:
    """Partial-fraction mode symbol lam^2 + alpha - beta * Khat(lam)."""
    if m.beta == 0.0:
        return lam * lam + m.alpha
    return lam * lam + m.alpha - m.beta * k.laplace(lam)


def denominator_products(k: ExponentialKernel) -> tuple[np.ndarray,
                                                       list[np.ndarray]]:
    """Ascending coefficients of prod_i (lam + b_i) and, for each term j, of
    prod_{i != j} (lam + b_i): the common denominator of Khat and the
    numerators of its partial fractions once cleared.
    """
    rates = np.asarray(k.rates)
    full = npp.polyfromroots(-rates).real
    partial = [npp.polyfromroots(-np.delete(rates, j)).real
               for j in range(k.n_terms)]
    return full, partial


def cleared_mode_polynomial(k: ExponentialKernel,
                            m: ModeCoefficients) -> RealPolynomial:
    """Degree N+2 polynomial (lam^2 + alpha) prod(lam+b_j) - beta * sum-term.

    Coefficients are assembled exactly by convolution, never by sampling.
    """
    full, partial = denominator_products(k)
    acc = npp.polymul(np.array([m.alpha, 0.0, 1.0]), full)
    for a, b, without in zip(k.amplitudes, k.rates, partial):
        acc = npp.polysub(acc, m.beta * a * b * np.pad(without, (0, acc.size - without.size)))
    return RealPolynomial(tuple(acc))


def _spurious(k: ExponentialKernel, m: ModeCoefficients, z: complex) -> bool:
    """True when a cleared-polynomial root at a pole fails the rational check.

    The candidate is pushed out to a safe distance from the nearby pole and
    the partial-fraction symbol is required to stay small there.
    """
    dists = [abs(z + b) for b in k.rates]
    j = int(np.argmin(dists))
    if dists[j] >= SPURIOUS_DISTANCE:
        return False
    pole = -k.rates[j]
    offset = z - pole
    if abs(offset) < 10.0 * POLE_GUARD:
        offset = complex(1.0, 0.0)
    zp = pole + offset * (SPURIOUS_DISTANCE / abs(offset))
    return abs(rational_symbol(k, m, zp)) > 1e-6 * (1.0 + m.alpha)


def mode_eigenvalues(k: ExponentialKernel, m: ModeCoefficients,
                     tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of one scalar mode, spurious pole roots removed.

    Returns at most N+2 complex values, conjugate-closed and sorted by
    (re, im).
    """
    roots = all_roots(cleared_mode_polynomial(k, m), tol)
    keep = [z for z in roots if not _spurious(k, m, z)]
    return np.array(keep, dtype=complex)


def jordan_condition(k: ExponentialKernel, bhat: float, lam0: float) -> float:
    """Non-degeneracy value (2/lam0)(bhat*Khat - 1) - bhat*Khat' at a real
    eigenvalue; nonzero means the Jordan chain has length one.

    Only the constant-damping specialization is evaluated here.
    """
    if lam0 == 0.0:
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
