"""Essential spectrum and enclosure region construction.

One-term branch zeros have the closed form -b1 + bhat*a1*b1, so the interval
endpoints are checked against exact arithmetic.  The real interval [c0, c1]
is cross-checked by plain sign-change bisection on the rational symbol, a
route that shares no code with the polynomial solvers, and both are checked
against a dense sweep of damping levels.
"""

import numpy as np
import pytest

from memspec import (
    DampingBound,
    ExponentialKernel,
    HypothesisError,
    ModeCoefficients,
    boundary_cloud,
    enclosure,
    enclosure_interval,
    essential_spectrum,
    fredholm_factor_zeros,
    mode_spectra,
    one_pole_region,
    rational_symbol,
)
from memspec.enclosure import synthetic_alpha_grid
from test_scalar import two_term_zero_oracle


def _bisect_symbol_root(k, m, lo, hi, iters=200):
    """Sign-change bisection of the rational mode symbol on (lo, hi)."""
    flo = rational_symbol(k, m, lo).real
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = rational_symbol(k, m, mid).real
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEssentialSpectrum:
    def test_one_term_graded(self, k_one, d_graded):
        ess = essential_spectrum(k_one, d_graded)
        assert len(ess.intervals) == 1
        lo, hi = ess.intervals[0]
        assert lo == pytest.approx(-1.0 + 0.5 * 1.0, abs=1e-12)
        assert hi == pytest.approx(-1.0 + 0.75 * 1.0, abs=1e-12)

    def test_one_term_constant_is_a_point(self, k_wave, d_half):
        ess = essential_spectrum(k_wave, d_half)
        lo, hi = ess.intervals[0]
        assert lo == hi == pytest.approx(-0.5 + 0.5 * 0.45, abs=1e-12)

    def test_two_term_against_quadratic_formula(self, k_two, d_graded):
        ess = essential_spectrum(k_two, d_graded)
        assert len(ess.intervals) == 2
        lo_zeros = two_term_zero_oracle(k_two, 0.5)
        hi_zeros = two_term_zero_oracle(k_two, 0.75)
        assert ess.intervals[0] == pytest.approx(
            (lo_zeros[0], hi_zeros[0]), abs=1e-10
        )
        assert ess.intervals[1] == pytest.approx(
            (lo_zeros[1], hi_zeros[1]), abs=1e-10
        )

    def test_margin_violation(self, k_one):
        with pytest.raises(HypothesisError):
            essential_spectrum(k_one, DampingBound(0.5, 1.5))

    def test_contains(self, k_one, d_graded):
        ess = essential_spectrum(k_one, d_graded)
        assert ess.contains(-0.3)
        assert not ess.contains(-0.6)
        assert ess.contains(-0.5 - 1e-9, tol=1e-8)


def _dense_sweep(k, d, w_min, levels=129):
    """Essential intervals and [c0, c1] from every level of a dense grid."""
    grid = np.unique(np.linspace(max(d.b_min, 1e-8), max(d.b_max, 1e-8),
                                 levels))
    zeros = np.array([fredholm_factor_zeros(k, b) for b in grid])
    intervals = []
    for lo, hi in zip(zeros.min(axis=0), zeros.max(axis=0)):
        if intervals and lo - intervals[-1][1] < 1e-10:
            intervals[-1] = (intervals[-1][0], float(hi))
        else:
            intervals.append((float(lo), float(hi)))
    reals = [z.real for b in grid
             for z in mode_spectra(k, [w_min], [b * w_min])[0]
             if abs(z.imag) <= 1e-9 * (1.0 + abs(z))]
    return tuple(intervals), (min(reals), max(max(reals), zeros[-1].max()))


class TestTwoLevels:
    def test_bounds_match_dense_sweep(self, k_one, k_wave, k_two, d_graded,
                                      d_half):
        # the spectrum and [c0, c1] are read at b_min and b_max only; every
        # interior level of a dense sweep must leave them unchanged
        rng = np.random.default_rng(41)
        cases = [(k_one, d_graded), (k_two, d_graded), (k_wave, d_half)]
        for _ in range(9):
            n = int(rng.integers(1, 5))
            rates = np.sort(rng.uniform(0.1, 10.0, n))
            k = ExponentialKernel(tuple(rng.uniform(0.1, 1.0, n)),
                                  tuple(rates))
            top = float(rng.uniform(0.2, 0.95)) / k.amplitude_sum
            low = top if rng.random() < 0.3 else float(rng.uniform(0.0, top))
            cases.append((k, DampingBound(low, top)))
        for k, d in cases:
            w_min = float(rng.uniform(1.0, 50.0))
            intervals, interval = _dense_sweep(k, d, w_min)
            assert essential_spectrum(k, d).intervals == intervals
            assert enclosure_interval(k, d, w_min) == interval


class TestEnclosureInterval:
    def test_c1_is_branch_zero_at_b_max(self, k_one, d_graded):
        _, c1 = enclosure_interval(k_one, d_graded, 2.0 * np.pi ** 2)
        assert c1 == pytest.approx(-0.25, abs=1e-12)

    def test_c0_against_bisection(self, k_one, d_graded):
        w = 2.0 * np.pi ** 2
        c0, _ = enclosure_interval(k_one, d_graded, w)
        # for each damping level the cubic has exactly one real root, found
        # independently by bisection between the pole and the branch zero
        oracle = np.inf
        for bhat in np.linspace(0.5, 0.75, 129):
            m = ModeCoefficients(w, bhat * w)
            zero = -1.0 + bhat
            oracle = min(oracle,
                         _bisect_symbol_root(k_one, m, -1.0 + 1e-9, zero))
        assert c0 == pytest.approx(oracle, abs=1e-9)

    def test_constant_damping(self, k_wave, d_half):
        w = 2.0 * np.pi ** 2 * 17.0 / 16.0
        c0, c1 = enclosure_interval(k_wave, d_half, w)
        m = ModeCoefficients(w, 0.5 * w)
        oracle = _bisect_symbol_root(k_wave, m, -0.5 + 1e-9, -0.275)
        assert c0 == pytest.approx(oracle, abs=1e-9)
        assert c1 == pytest.approx(-0.275, abs=1e-12)

    def test_undamped_collapse(self, k_wave):
        # zero damping is floored at 1e-8, so [c0, c1] collapses next to
        # the pole -b_1: c1 is the branch zero -b_1 + 1e-8 a_1 b_1 and c0
        # the mode root between the pole and that zero
        c0, c1 = enclosure_interval(k_wave, DampingBound(0.0, 0.0), 20.0)
        assert abs(c1 + 0.5) == pytest.approx(1e-8 * 0.45, rel=1e-3)
        m = ModeCoefficients(20.0, 1e-8 * 20.0)
        oracle = _bisect_symbol_root(k_wave, m, -0.5 + 1e-11, c1)
        assert -0.5 < c0 < c1
        assert c0 == pytest.approx(oracle, abs=1e-15)

    def test_invalid_w_min(self, monkeypatch, k_one, d_graded):
        # refused before the zero search runs
        def search(*args):
            raise AssertionError("branch zeros searched for w_min = 0")

        monkeypatch.setattr(enclosure, "fredholm_factor_zeros", search)
        with pytest.raises(ValueError):
            enclosure_interval(k_one, d_graded, 0.0)


class TestOnePoleRegion:
    def test_strip_constants_follow_interval(self, k_one, d_graded):
        w = 2.0 * np.pi ** 2
        region = one_pole_region(k_one, d_graded, w)
        s = region.one_pole
        assert s.d0 == pytest.approx(-0.5 * (1.0 + region.c1), abs=1e-14)
        assert s.d1 == pytest.approx(-0.5 * (1.0 + region.c0), abs=1e-14)
        assert s.hat_d == pytest.approx(
            np.sqrt(w - s.d0 ** 2 - 2.0 * s.d0 * region.c0), abs=1e-12
        )

    def test_two_term_rejected(self, k_two, d_graded):
        with pytest.raises(ValueError):
            one_pole_region(k_two, d_graded, 10.0)

    def test_region_contains_mode_spectra(self, k_wave, d_half):
        w = 2.0 * np.pi ** 2 * 17.0 / 16.0
        region = one_pole_region(k_wave, d_half, w)
        s = region.one_pole
        for alpha in np.linspace(w, 40.0 * w, 25):
            for z in mode_spectra(k_wave, [alpha], [0.5 * alpha])[0]:
                assert region.contains(z, 1e-8)
                if z.imag != 0.0:
                    assert s.d0 - 1e-8 <= z.real <= s.d1 + 1e-8, z
                    assert abs(z.imag) >= s.hat_d - 1e-8, z

    def test_contains_logic(self):
        k = ExponentialKernel((1.0,), (1.0,))
        w = 2.0 * np.pi ** 2
        region = one_pole_region(k, DampingBound(0.5, 0.75), w)
        assert region.contains(complex(region.c0, 0.0), 1e-12)
        assert not region.contains(complex(region.c0 - 1e-6, 0.0), 1e-12)

        def root(alpha, ratio):
            roots = mode_spectra(k, [alpha], [ratio * alpha])[0]
            return roots[roots.imag > 0][0]

        # a non-real point passes exactly when it is a mode root with
        # alpha >= w and 0.5 <= beta / alpha <= 0.75
        assert region.contains(root(w, 0.5), 1e-12)
        assert region.contains(root(3.0 * w, 0.75), 1e-12)
        assert not region.contains(root(0.9 * w, 0.6), 1e-12)
        assert not region.contains(root(3.0 * w, 0.8), 1e-12)
        assert not region.contains(root(3.0 * w, 0.45), 1e-12)
        # the strips are coarser than the test
        s = region.one_pole
        assert not region.contains(complex(s.d0, s.hat_d + 1.0), 1e-12)
        assert not region.contains(complex(s.d0, 0.5 * s.hat_d), 1e-12)
        assert not region.contains(complex(s.d1 + 1e-3, s.hat_d + 1.0), 1e-12)


class TestCloud:
    def test_constant_damping_single_beta(self, k_wave, d_half):
        alphas = [21.0, 30.0]
        cloud = boundary_cloud(k_wave, d_half, alphas)
        per_alpha = [len(mode_spectra(k_wave, [a], [0.5 * a])[0])
                     for a in alphas]
        assert len(cloud) == sum(per_alpha)

    def test_deterministic(self, k_two, d_graded):
        alphas = [12.0, 25.0]
        assert np.array_equal(boundary_cloud(k_two, d_graded, alphas),
                              boundary_cloud(k_two, d_graded, alphas))

    def test_margin_violation(self, k_one):
        with pytest.raises(HypothesisError):
            boundary_cloud(k_one, DampingBound(0.0, 2.0), [10.0])

    def test_synthetic_grid(self):
        grid = synthetic_alpha_grid(2.0)
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(2e4)
        assert len(grid) == 64
        assert np.all(np.diff(grid) > 0)
