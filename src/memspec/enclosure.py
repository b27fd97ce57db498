"""Essential spectrum and numerical-range enclosures.

The essential spectrum consists of at most N real intervals swept out by the
zeros of 1 - bhat * Khat as bhat ranges over the damping bounds.  The complex
enclosure is the real interval [c0, c1] plus, for one-term kernels, two
vertical half-strips; for general kernels the complex part is delivered as a
sampled boundary cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError
from .kernel import ExponentialKernel
from .scalar import (
    DampingBound,
    ModeCoefficients,
    fredholm_factor_zeros,
    mode_eigenvalues,
)

#: Damping level used in place of an exact zero to keep branch zeros defined.
DAMPING_FLOOR = 1e-8

#: Branch intervals closer than this are merged.
MERGE_GAP = 1e-10

#: |Im| below this (relative) counts as a real root when collecting c0/c1.
_REAL_IM_TOL = 1e-9


@dataclass(frozen=True)
class EssentialSpectrum:
    """Disjoint closed real intervals, sorted ascending."""

    intervals: tuple[tuple[float, float], ...]

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= x <= hi + tol for lo, hi in self.intervals)


@dataclass(frozen=True)
class OnePoleStrips:
    """Vertical half-strips Re in [d0, d1], |Im| >= hat_d (one-term kernel)."""

    d0: float
    d1: float
    hat_d: float


@dataclass(frozen=True)
class EnclosureRegion:
    """Computed enclosure: real interval, optional strips, sampled cloud."""

    c0: float
    c1: float
    one_pole: OnePoleStrips | None = None
    boundary_cloud: tuple[complex, ...] = field(default_factory=tuple)
    alpha_cap: float = float("nan")

    def contains(self, lam: complex, tol: float) -> bool:
        """Membership in the enclosure inflated by ``tol``.

        Real points are tested against [c0, c1].  Complex points use the
        one-term strips when available and otherwise fall back to proximity
        to the sampled boundary cloud.
        """
        lam = complex(lam)
        if abs(lam.imag) <= tol:
            return self.c0 - tol <= lam.real <= self.c1 + tol
        if self.one_pole is not None:
            s = self.one_pole
            return (s.d0 - tol <= lam.real <= s.d1 + tol
                    and abs(lam.imag) >= s.hat_d - tol)
        if self.boundary_cloud:
            return min(abs(lam - z) for z in self.boundary_cloud) <= tol
        return False


def damping_levels(d: DampingBound) -> tuple[float, ...]:
    """The damping levels whose branch zeros and mode roots bound the spectrum.

    These are b_min and b_max, or the one level when damping is constant; a
    zero level is replaced by DAMPING_FLOOR to keep the branch zeros defined.
    """
    lo = max(d.b_min, DAMPING_FLOOR)
    hi = max(d.b_max, DAMPING_FLOOR)
    return (lo,) if lo == hi else (lo, hi)


def essential_spectrum(k: ExponentialKernel,
                       d: DampingBound) -> EssentialSpectrum:
    """Essential-spectrum intervals from the branch zeros at b_min and b_max.

    On its pole gap the j-th zero solves Khat(lam) = 1/bhat, and Khat is
    strictly decreasing there, so the zero increases continuously with bhat.
    The zeros over [b_min, b_max] therefore fill exactly the interval between
    the zeros at the two bounds.
    """
    if k.dissipativity_margin(d.b_max) <= 0.0:
        raise HypothesisError(
            f"1 - b_max * sum(a_j) = {k.dissipativity_margin(d.b_max)} <= 0"
        )
    levels = damping_levels(d)
    lows = fredholm_factor_zeros(k, levels[0])
    highs = fredholm_factor_zeros(k, levels[-1]) if len(levels) > 1 else lows
    intervals: list[tuple[float, float]] = []
    for lo, hi in zip(lows, highs):
        if intervals and lo - intervals[-1][1] < MERGE_GAP:
            intervals[-1] = (intervals[-1][0], hi)
        else:
            intervals.append((lo, hi))
    return EssentialSpectrum(tuple(intervals))


def _real_parts(roots: np.ndarray) -> list[float]:
    return [z.real for z in roots
            if abs(z.imag) <= _REAL_IM_TOL * (1.0 + abs(z))]


def enclosure_interval(k: ExponentialKernel, d: DampingBound,
                       w_min: float) -> tuple[float, float]:
    """Endpoints [c0, c1] of the real part of the enclosure.

    The spectral map hits w_min at level bhat exactly at the real roots of
    the cleared mode polynomial with alpha = w_min, beta = bhat * w_min.
    Over [b_min, b_max] these roots form the preimage R of [b_min, b_max]
    under g(lam) = (lam^2 + w_min) / (w_min * Khat(lam)).  g is continuous
    except at the poles of Khat, where it tends to 0 < b_min (a zero b_min
    is floored at DAMPING_FLOOR), and at the zeros of Khat, where it is
    unbounded; so g is continuous near each extreme point of R.  Were g
    strictly inside (b_min, b_max) there, points just beyond would lie in R
    too.  Hence min R and max R are roots at b_min or at b_max, and these
    two levels give c0 and c1.  c1 is then tightened to the rightmost branch
    zero at b_max, where the spectral map blows up.
    """
    if not w_min > 0.0:
        raise ValueError(f"w_min = {w_min} must be positive")
    if k.dissipativity_margin(d.b_max) <= 0.0:
        raise HypothesisError(
            f"1 - b_max * sum(a_j) = {k.dissipativity_margin(d.b_max)} <= 0"
        )
    levels = damping_levels(d)
    reals: list[float] = []
    for bhat in levels:
        m = ModeCoefficients(w_min, bhat * w_min)
        reals.extend(_real_parts(mode_eigenvalues(k, m)))
    zero = max(fredholm_factor_zeros(k, levels[-1]))
    if not reals:
        # undamped collapse: every real root sits at a pole and is filtered,
        # so the interval degenerates to the branch-zero limit
        return zero, zero
    return float(min(reals)), float(max(max(reals), zero))


def one_pole_region(k: ExponentialKernel, d: DampingBound,
                    w_min: float) -> EnclosureRegion:
    """Closed-form region S0 + two strips for a one-term kernel."""
    if k.n_terms != 1:
        raise ValueError("closed-form strips exist only for one-term kernels")
    c0, c1 = enclosure_interval(k, d, w_min)
    b1 = k.rates[0]
    d0 = -0.5 * (b1 + c1)
    d1 = -0.5 * (b1 + c0)
    radicand = w_min - d0 * d0 - 2.0 * d0 * c0
    if radicand < 0.0:
        raise HypothesisError(
            f"strip height radicand {radicand} < 0; w_min too small"
        )
    return EnclosureRegion(
        c0, c1, OnePoleStrips(float(d0), float(d1), float(np.sqrt(radicand)))
    )


def boundary_cloud(
        k: ExponentialKernel, d: DampingBound, alphas,
        samples_beta: int = 11) -> list[tuple[complex, float, float]]:
    """Sampled enclosure points: mode eigenvalues over an (alpha, beta) grid.

    Each point comes as (z, alpha, beta).  The output order is canonical
    (alpha-major, beta-minor, then root order), independent of any internal
    parallelism.
    """
    if k.dissipativity_margin(d.b_max) <= 0.0:
        raise HypothesisError(
            f"1 - b_max * sum(a_j) = {k.dissipativity_margin(d.b_max)} <= 0"
        )
    cloud: list[tuple[complex, float, float]] = []
    for alpha in alphas:
        if d.is_constant:
            betas = [d.b_max * alpha]
        else:
            betas = np.linspace(d.b_min * alpha, d.b_max * alpha, samples_beta)
        for beta in betas:
            m = ModeCoefficients(float(alpha), float(beta))
            cloud.extend((complex(z), m.alpha, m.beta)
                         for z in mode_eigenvalues(k, m))
    return cloud


def synthetic_alpha_grid(w_min: float, alpha_cap: float | None = None,
                         points: int = 64) -> np.ndarray:
    """Log-spaced alpha grid from w_min up to alpha_cap (default 1e4 * w_min)."""
    if alpha_cap is None:
        alpha_cap = 1e4 * w_min
    return np.geomspace(w_min, alpha_cap, points)
