"""Essential spectrum and numerical-range enclosures.

The essential spectrum consists of at most N real intervals swept out by the
zeros of 1 - bhat * Khat as bhat ranges over the damping bounds.  The
enclosure is the real interval [c0, c1] plus the non-real roots of mode
symbols with alpha >= w_min and b_min <= beta / alpha <= b_max; one-term
kernels also get two closed-form vertical half-strips around those roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .kernel import ExponentialKernel
from .scalar import DampingBound, fredholm_factor_zeros, mode_spectra

#: Damping level used in place of an exact zero to keep branch zeros defined.
DAMPING_FLOOR = 1e-8

#: Branch intervals closer than this are merged.
MERGE_GAP = 1e-10

#: Most modes (alphas x beta samples) one boundary cloud solves.  Each mode
#: holds about 1 KB of solver arrays at N = 1 and 10 KB at N = 12, so the
#: largest cloud peaks near 0.1 GB and 0.5 GB.
MAX_CLOUD_MODES = 50_000


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
    """Enclosure for kernel ``kernel``, damping ``bounds`` and stiffness
    >= ``w_min``: the real interval [c0, c1], optional one-term strips."""

    kernel: ExponentialKernel
    bounds: DampingBound
    w_min: float
    c0: float
    c1: float
    one_pole: OnePoleStrips | None = None

    def violation(self, lam, tol: float):
        """How far ``lam`` fails the membership test; 0 where it passes.

        Elementwise over an array ``lam``.  A real point (|Im| <= tol) must
        lie within tol of [c0, c1].  For lam = x + iy the mode symbol is
        linear in (alpha, beta): beta = 2xy / Im Khat(lam) and alpha =
        beta * Re Khat(lam) - (x^2 - y^2).  lam passes when alpha >= w_min
        and b_min <= beta / alpha <= b_max up to the relative slack
        tol / (1 + |lam|); the value is the shortfall beyond the slack,
        relative to w_min and to 1 / sum(a_j), the hypothesis' cap on b_max.
        """
        lam = np.asarray(lam, dtype=complex)
        out = np.asarray(np.maximum(np.maximum(self.c0 - tol - lam.real,
                                               lam.real - self.c1 - tol), 0.0))
        off = np.abs(lam.imag) > tol
        z = lam[off]
        x, y, khat = z.real, z.imag, self.kernel.laplace(z)
        beta = 2.0 * x * y / khat.imag
        alpha = beta * khat.real - (x * x - y * y)
        with np.errstate(divide="ignore", invalid="ignore"):
            # alpha <= 0 already falls short by 1 - alpha / w_min >= 1
            ratio = np.where(alpha > 0.0, beta / alpha, self.bounds.b_min)
        spread = self.kernel.amplitude_sum * np.maximum(
            self.bounds.b_min - ratio, ratio - self.bounds.b_max)
        short = np.maximum(1.0 - alpha / self.w_min, spread)
        out[off] = np.maximum(short - tol / (1.0 + np.abs(z)), 0.0)
        return out[()]

    def contains(self, lam, tol: float):
        """Membership in the enclosure, relaxed by ``tol`` (see violation)."""
        return self.violation(lam, tol) == 0.0


def _require_margin(k: ExponentialKernel, d: DampingBound) -> None:
    if k.dissipativity_margin(d.b_max) <= 0.0:
        raise HypothesisError(
            f"1 - b_max * sum(a_j) = {k.dissipativity_margin(d.b_max)} <= 0"
        )


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
    _require_margin(k, d)
    zeros = fredholm_factor_zeros(k, damping_levels(d))
    return _essential_from_zeros(zeros[0], zeros[-1])


def _essential_from_zeros(low: list, high: list) -> EssentialSpectrum:
    """The intervals between the branch zeros ``low`` at b_min and ``high``
    at b_max, merged where they meet."""
    intervals: list[tuple[float, float]] = []
    for lo, hi in zip(low, high):
        if intervals and lo - intervals[-1][1] < MERGE_GAP:
            intervals[-1] = (intervals[-1][0], hi)
        else:
            intervals.append((lo, hi))
    return EssentialSpectrum(tuple(intervals))


def enclosure_interval(k: ExponentialKernel, d: DampingBound,
                       w_min: float) -> tuple[float, float]:
    """Endpoints [c0, c1] of the real part of the enclosure.

    The spectral map hits w_min at level bhat exactly at the real roots of
    the mode symbol with alpha = w_min, beta = bhat * w_min.
    Over [b_min, b_max] these roots form the preimage R of [b_min, b_max]
    under g(lam) = (lam^2 + w_min) / (w_min * Khat(lam)).  g is continuous
    except at the poles of Khat, where it tends to 0 < b_min (a zero b_min
    is floored at DAMPING_FLOOR), and at the zeros of Khat, where it is
    unbounded; so g is continuous near each extreme point of R.  Were g
    strictly inside (b_min, b_max) there, points just beyond would lie in R
    too.  Hence min R and max R are roots at b_min or at b_max, and these
    two levels give c0 and c1.  c1 is then tightened to the rightmost branch
    zero at b_max, where the spectral map blows up.  A real root always
    exists: on (-b_1, 0) the symbol rises from -inf to
    w_min * (1 - bhat * sum(a_j)) > 0.
    """
    _require_margin(k, d)
    levels = damping_levels(d)
    zero = max(fredholm_factor_zeros(k, levels[-1]))
    if not w_min > 0.0:
        raise ValueError(f"w_min = {w_min} must be positive")
    spectra = mode_spectra(k, [w_min] * len(levels),
                           [bhat * w_min for bhat in levels])
    return _interval_from_roots(spectra, zero)


def _interval_from_roots(spectra, zero: float) -> tuple[float, float]:
    """[c0, c1] of :func:`enclosure_interval` from the roots ``spectra`` of
    the modes (w_min, bhat * w_min) at the damping levels and the rightmost
    branch zero ``zero`` at b_max."""
    reals = [z.real for z in np.concatenate(spectra) if z.imag == 0.0]
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
        k, d, w_min, c0, c1,
        OnePoleStrips(float(d0), float(d1), float(np.sqrt(radicand))),
    )


def boundary_cloud(k: ExponentialKernel, d: DampingBound, alphas,
                   samples_beta: int = 11) -> np.ndarray:
    """Sampled enclosure points: mode eigenvalues over an (alpha, beta) grid.

    Returns one (P, 4) array with the columns re z, im z, alpha, beta, in
    alpha-major, beta-minor, then root order; all modes are solved in one
    batched call.  More than MAX_CLOUD_MODES modes raise ValueError before
    any is built.
    """
    _require_margin(k, d)
    alphas = np.asarray(alphas, dtype=float)
    samples = 1 if d.is_constant else samples_beta
    if alphas.size * samples > MAX_CLOUD_MODES:
        raise ValueError(
            f"{alphas.size} alphas x {samples} beta samples exceed "
            f"{MAX_CLOUD_MODES} cloud modes")
    betas = np.linspace(d.b_min * alphas, d.b_max * alphas, samples, axis=1)
    alphas = np.broadcast_to(alphas[:, None], betas.shape).ravel()
    betas = betas.ravel()
    spectra = mode_spectra(k, alphas, betas)
    counts = [len(roots) for roots in spectra]
    z = np.concatenate(spectra)
    return np.column_stack((z.real, z.imag, np.repeat(alphas, counts),
                            np.repeat(betas, counts)))


def synthetic_alpha_grid(w_min: float) -> np.ndarray:
    """64 log-spaced alpha values from w_min up to 1e4 * w_min."""
    return np.geomspace(w_min, 1e4 * w_min, 64)
