"""Scalar spectral functions: branch zeros, spectral map, mode polynomials.

One-term branch zeros have the closed form -b1 + bhat*a1*b1 and two-term
zeros follow from the quadratic formula; both oracles are recomputed inline,
and wide-rate kernels are checked against 50-digit mpmath roots, so the
bisection and the batched mode solver are tested against independent
arithmetic.
"""

import mpmath
import numpy as np
import pytest

from memspec import (
    DampingBound,
    ExponentialKernel,
    HypothesisError,
    ModeCoefficients,
    cleared_mode_polynomial,
    fredholm_factor_zeros,
    jordan_condition,
    mode_spectra,
    rational_symbol,
)
from memspec.scalar import jordan_ratio
from root_oracle import real_imag_residual


def mpmath_zero_oracle(k, bhat):
    """Zeros of 1 - bhat*Khat at 50 digits, one bracketed solve per gap."""
    with mpmath.workdps(50):
        amps = [mpmath.mpf(a) for a in k.amplitudes]
        rates = [mpmath.mpf(b) for b in k.rates]
        bhat = mpmath.mpf(bhat)
        zeros = []
        for j, b_j in enumerate(rates):
            def factor(lam):
                return 1 - bhat * mpmath.fsum(
                    a * b / (lam + b) for a, b in zip(amps, rates))
            right = -rates[j - 1] if j else mpmath.mpf(0)
            eps = (b_j + right) * mpmath.mpf(10) ** -40
            zero = mpmath.findroot(factor, (-b_j + eps, right - eps),
                                   solver="anderson")
            assert -b_j < zero < right
            zeros.append(zero)
        return sorted(zeros)


def mpmath_mode_roots(k, alpha, beta, starts):
    """Roots of the cleared mode symbol at 50 digits, one secant solve from
    each start; each must leave a relative residual below 1e-40."""
    with mpmath.workdps(50):
        weights = [mpmath.mpf(a) * mpmath.mpf(b)
                   for a, b in zip(k.amplitudes, k.rates)]
        rates = [mpmath.mpf(b) for b in k.rates]
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)

        def terms(lam, factors):
            # (lam^2 + alpha) prod(lam + b_i) and
            # beta sum_j a_j b_j prod_{i != j} (lam + b_i)
            return ((lam * lam + alpha) * mpmath.fprod(factors),
                    beta * mpmath.fsum(
                        w * mpmath.fprod(factors[:j] + factors[j + 1:])
                        for j, w in enumerate(weights)))

        def cleared(lam):
            head, tail = terms(lam, [lam + b for b in rates])
            return head - tail

        roots = []
        for z in starts:
            w = mpmath.findroot(cleared, mpmath.mpc(z), verify=False)
            head, tail = terms(abs(w), [abs(w + b) for b in rates])
            assert abs(cleared(w)) <= 1e-40 * (head + tail)
            roots.append(w)
        return roots


def two_term_zero_oracle(k, bhat):
    """Quadratic-formula roots of (1 - bhat*Khat) * (lam+b1)(lam+b2)."""
    (a1, a2), (b1, b2) = k.amplitudes, k.rates
    p = b1 + b2 - bhat * (a1 * b1 + a2 * b2)
    q = b1 * b2 - bhat * (a1 * b1 * b2 + a2 * b2 * b1)
    disc = np.sqrt(p * p - 4.0 * q)
    return sorted([(-p - disc) / 2.0, (-p + disc) / 2.0])


class TestCoefficientContainers:
    def test_damping_bound_validation(self):
        d = DampingBound(0.5, 0.75)
        assert not d.is_constant
        assert DampingBound(0.3, 0.3).is_constant
        with pytest.raises(ValueError):
            DampingBound(-0.1, 0.5)
        with pytest.raises(ValueError):
            DampingBound(0.8, 0.5)

    def test_mode_coefficients_validation(self):
        ModeCoefficients(1.0, 0.0)
        with pytest.raises(ValueError):
            ModeCoefficients(0.0, 0.0)
        with pytest.raises(ValueError):
            ModeCoefficients(1.0, -0.5)


class TestFredholmFactor:
    def test_one_term_zero_closed_form(self, k_wave):
        # 1 - bhat * a1 b1 / (lam + b1) = 0  iff  lam = -b1 + bhat a1 b1
        for bhat in (0.2, 0.5, 0.9):
            zeros = fredholm_factor_zeros(k_wave, bhat)
            assert len(zeros) == 1
            assert zeros[0] == pytest.approx(-0.5 + bhat * 0.45, abs=1e-13)

    def test_two_term_zeros_against_quadratic_formula(self, k_two):
        for bhat in (0.5, 0.75):
            zeros = fredholm_factor_zeros(k_two, bhat)
            assert np.allclose(zeros, two_term_zero_oracle(k_two, bhat),
                               atol=1e-12)

    def test_wide_rate_zeros_against_mpmath(self):
        # N <= 12 terms with rates spread over 1e-3..1e3; the margin
        # 1 - bhat*sum(a) stays >= 0.1, which bounds the conditioning of the
        # zero next to 0
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            rates = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n))
            amps = 10.0 ** rng.uniform(-3.0, 0.0, n)
            k = ExponentialKernel(tuple(amps), tuple(rates))
            levels = np.array([1e-8, float(rng.uniform(0.0, 0.9))]) \
                / k.amplitude_sum
            batched = fredholm_factor_zeros(k, levels)
            for bhat, row in zip(levels, batched):
                got = fredholm_factor_zeros(k, bhat)
                assert row == got  # one bisection for all levels, same bits
                want = mpmath_zero_oracle(k, bhat)
                assert len(got) == n
                for z, w in zip(got, want):
                    assert abs(z - w) <= 1e-13 * abs(w)

    def test_zeros_interlace_poles(self, k_two):
        zeros = fredholm_factor_zeros(k_two, 0.6)
        assert -1.5 < zeros[0] < -1.0 < zeros[1] < 0.0

    def test_undamped_has_no_zeros(self, k_one):
        assert fredholm_factor_zeros(k_one, 0.0) == []
        assert fredholm_factor_zeros(k_one, [0.0, 0.6]) == \
            [[], fredholm_factor_zeros(k_one, 0.6)]

    def test_margin_violation(self, k_one):
        with pytest.raises(HypothesisError):
            fredholm_factor_zeros(k_one, 1.5)
        with pytest.raises(ValueError):
            fredholm_factor_zeros(k_one, -0.1)


class TestSpectralMap:
    def test_round_trip_through_mode_symbol(self, k_one):
        # if the map g(lam) = -lam^2 / (1 - bhat Khat(lam)) gives W, then
        # lam is a root of the mode symbol with alpha = W, beta = bhat * W;
        # Khat(lam) = 1 / (lam + 1) for k_one, written out here
        bhat = 0.6
        zero = fredholm_factor_zeros(k_one, bhat)[0]
        lam = 0.5 * (zero + (-1.0))  # between the pole and the branch zero
        w = -lam * lam / (1.0 - bhat / (lam + 1.0))
        assert w > 0.0
        m = ModeCoefficients(w, bhat * w)
        assert abs(rational_symbol(k_one, m, lam)) < 1e-10 * (1.0 + w)


class TestModePolynomial:
    def test_cleared_polynomial_matches_rational_symbol(self, k_two):
        m = ModeCoefficients(17.0, 5.0)
        poly = cleared_mode_polynomial(k_two, m)
        assert poly.shape == (5,)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = complex(rng.normal(), rng.normal())
            denom = np.prod([lam + b for b in k_two.rates])
            assert np.polyval(poly[::-1], lam) == pytest.approx(
                rational_symbol(k_two, m, lam) * denom, rel=1e-11
            )
        # arrays of modes give one coefficient row per mode, equal to the
        # one-mode calls
        alphas, betas = np.array([17.0, 3.5, 250.0]), np.array([5.0, 0.0, 90.0])
        rows = cleared_mode_polynomial(k_two, ModeCoefficients(alphas, betas))
        assert rows.shape == (3, 5)
        for alpha, beta, got in zip(alphas, betas, rows):
            want = cleared_mode_polynomial(k_two, ModeCoefficients(alpha, beta))
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_cleared_polynomial_against_mpmath(self):
        # N <= 12 terms with rates over 1e-3..1e3; each coefficient within
        # 1e-14 of the same coefficient of (lam^2 + alpha) prod(lam + b_i),
        # which bounds the terms' magnitudes while beta / alpha < 1 / sum(a)
        def expand(roots):
            coeffs = [mpmath.mpf(1)]
            for b in roots:
                coeffs = [c * b + lower for c, lower in
                          zip(coeffs + [0], [0] + coeffs)]
            return coeffs

        rng = np.random.default_rng(12)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            rates = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n))
            k = ExponentialKernel(tuple(10.0 ** rng.uniform(-3.0, 0.0, n)),
                                  tuple(rates))
            alpha = 10.0 ** rng.uniform(-1.0, 4.0)
            beta = alpha * rng.uniform(0.0, 0.95) / k.amplitude_sum
            got = cleared_mode_polynomial(k, ModeCoefficients(alpha, beta))
            with mpmath.workdps(50):
                full = expand([mpmath.mpf(b) for b in k.rates])
                scale = [alpha * c for c in full] + [0, 0]
                for i, c in enumerate(full):
                    scale[i + 2] += c
                want = list(scale)
                for j, (a, b) in enumerate(zip(k.amplitudes, k.rates)):
                    rest = expand([mpmath.mpf(r) for i, r in
                                   enumerate(k.rates) if i != j])
                    for i, c in enumerate(rest):
                        want[i] -= mpmath.mpf(beta) * a * b * c
                assert len(got) == n + 3
                for g, w, size in zip(got, want, scale):
                    assert abs(g - w) <= 1e-14 * size

    def test_undamped_symbol(self, k_one):
        m = ModeCoefficients(4.0, 0.0)
        assert rational_symbol(k_one, m, 2j) == pytest.approx(0.0, abs=1e-14)

    def test_mode_eigenvalues_satisfy_symbol(self, k_two):
        m = ModeCoefficients(30.0, 12.0)
        roots = mode_spectra(k_two, [m.alpha], [m.beta])[0]
        assert 1 <= len(roots) <= 4
        for z in roots:
            assert abs(rational_symbol(k_two, m, z)) < 1e-8 * (1.0 + m.alpha)
            assert np.conj(z) in roots

    def test_tiny_complex_pair_stays_complex(self, k_one):
        # alpha = pi^2 / 1e20 (a box side of 1e10): the pair
        # -alpha bhat / 2 +- i sqrt(alpha (1 - bhat)) has |Im| near 2e-10,
        # below the snap floor REAL_SNAP, but its real part fails the
        # residual bound; the pair is kept, conjugate-closed
        alpha = np.pi ** 2 / 1e20
        for bhat in (0.5, 0.75):
            roots = mode_spectra(k_one, [alpha], [bhat * alpha])[0]
            assert len(roots) == 3
            pair = roots[roots.imag != 0.0]
            assert len(pair) == 2 and pair[0] == np.conj(pair[1])
            want = np.sqrt(alpha * (1.0 - bhat))
            assert abs(abs(pair[0].imag) - want) <= 1e-6 * want

    @pytest.mark.parametrize("side", [1e24, 1e50, 1e100, 1e150])
    def test_tiny_alpha_pair_against_mpmath(self, k_one, k_two, side):
        # alpha = pi^2 / side^2 is 1e-47 .. 1e-299: the pair near
        # +- i sqrt(alpha (1 - bhat sum(a))) is below LAPACK's absolute
        # accuracy, which returns zeros for it; the solver starts it from
        # the small-lam model and must meet the 50-digit roots, found in
        # the scaled variable mu = lam / sqrt(alpha)
        alpha = np.pi ** 2 / side ** 2
        for k in (k_one, k_two):
            for bhat in (0.0, 0.5, 0.75):
                roots = mode_spectra(k, [alpha], [bhat * alpha])[0]
                pair = roots[np.abs(roots) < 1e-3]
                assert len(pair) == 2 and pair[0] == np.conj(pair[1])
                with mpmath.workdps(50):
                    scale = mpmath.sqrt(mpmath.mpf(alpha))
                    a, beta = mpmath.mpf(alpha), mpmath.mpf(bhat * alpha)
                    terms = [(mpmath.mpf(w) * mpmath.mpf(b), mpmath.mpf(b))
                             for w, b in zip(k.amplitudes, k.rates)]

                    def symbol(mu):
                        lam = scale * mu
                        return (lam * lam + a - beta * mpmath.fsum(
                            w / (lam + b) for w, b in terms)) / a

                    for z in pair:
                        mu = mpmath.findroot(symbol, mpmath.mpc(z) / scale)
                        assert abs(symbol(mu)) <= 1e-40
                        want = complex(mu * scale)
                        assert abs(z - want) <= 1e-13 * abs(want)

    def test_huge_alpha_keeps_its_near_pole_roots(self, k_two):
        # at alpha = 1e16 and up, the two near-pole roots lie far below
        # eps times the matrix norm, yet LAPACK resolves them; only a pair
        # the small-lam model puts below eps max(1, b_N) is replaced
        for alpha in (1e16, 1e20, 1e40):
            roots = mode_spectra(k_two, [alpha], [0.6 * alpha])[0]
            want = mpmath_mode_roots(k_two, alpha, 0.6 * alpha, roots)
            for z, w in zip(roots, want):
                assert abs(z - complex(w)) <= 1e-13 * abs(w)

    def test_wide_rate_mode_roots_against_mpmath(self):
        # N <= 12 terms with rates over 1e-3..1e3, four modes per kernel
        # including beta = 0; the 50-digit roots are pairwise distinct and
        # as many as the degree of the cleared symbol, so none is missed
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            rates = np.sort(10.0 ** rng.uniform(-3.0, 3.0, n))
            amps = 10.0 ** rng.uniform(-3.0, 0.0, n)
            k = ExponentialKernel(tuple(amps), tuple(rates))
            alphas = 10.0 ** rng.uniform(-1.0, 4.0, 4)
            betas = alphas * np.append(
                rng.uniform(0.0, 0.9, 3) / k.amplitude_sum, 0.0)
            z, counts = mode_spectra(k, alphas, betas)
            for alpha, beta, roots in zip(alphas, betas,
                                          np.split(z, np.cumsum(counts))):
                assert len(roots) == (n + 2 if beta > 0.0 else 2)
                want = [complex(w)
                        for w in mpmath_mode_roots(k, alpha, beta, roots)]
                for z, w in zip(roots, want):
                    assert abs(z - w) <= 1e-13 * abs(w)
                gaps = np.abs(np.subtract.outer(want, want))
                np.fill_diagonal(gaps, np.inf)
                assert gaps.min() > 1e-8 * np.abs(want).max()

    def test_batched_equals_one_mode_calls(self, k_two):
        rng = np.random.default_rng(11)
        rates = np.sort(10.0 ** rng.uniform(-3.0, 2.5, 12))
        k_wide = ExponentialKernel(tuple(np.full(12, 0.05)), tuple(rates))
        for k in (k_two, k_wide):
            alphas = 10.0 ** rng.uniform(0.0, 4.0, 40)
            betas = alphas * rng.uniform(0.0, 0.9, 40) / k.amplitude_sum
            betas[::7] = 0.0
            z, counts = mode_spectra(k, alphas, betas)
            for alpha, beta, roots in zip(alphas, betas,
                                          np.split(z, np.cumsum(counts))):
                one = mode_spectra(k, [alpha], [beta])[0]
                assert np.array_equal(one, roots)

    def test_undamped_mode_eigenvalues_are_pure_imaginary(self, k_two):
        # at beta = 0 the memory variables decouple; their eigenvalues -b_j
        # are dropped and only +-i sqrt(alpha) remain
        roots = mode_spectra(k_two, [9.0], [0.0])[0]
        assert len(roots) == 2
        assert np.allclose(sorted(roots, key=lambda z: z.imag), [-3j, 3j],
                           atol=1e-9)

    def test_undamped_pair_ignores_eigvals(self, k_two, monkeypatch):
        # beta = 0 modes are written as -i sqrt(alpha), i sqrt(alpha), not
        # solved: eigenvalues a few ulp off change no bit of them, at the
        # extremes of alpha too and beside a damped mode, and eigvals sees
        # the damped realizations alone
        eigvals, stacks = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: stacks.append(
            len(a)) or eigvals(a) * (1.0 + 4e-16))
        alphas = np.array([9.0, 2.0, 1e-299, 1e40])
        want = (np.array([-1j, 1j]) * np.sqrt(alphas)[:, None]).ravel()
        roots, counts = mode_spectra(k_two, alphas, np.zeros(4))
        assert counts.tolist() == [2] * 4
        assert roots.tobytes() == want.tobytes()
        assert not np.signbit(roots.real).any()
        roots, counts = mode_spectra(k_two, [9.0, 9.0], [0.0, 3.0])
        assert roots[:2].tobytes() == want[:2].tobytes()
        assert stacks == [0, 1]


class TestJordanCondition:
    def test_matches_symbol_derivative(self, k_wave):
        # at a real eigenvalue lam0 of the mode (alpha, bhat*alpha) the
        # condition equals d/dlam [symbol] / alpha; check by central
        # differences of the rational symbol
        bhat, alpha = 0.5, 20.0
        m = ModeCoefficients(alpha, bhat * alpha)
        roots = mode_spectra(k_wave, [alpha], [bhat * alpha])[0]
        lam0 = roots.real[roots.imag == 0][0]
        h = 1e-6
        fd = (rational_symbol(k_wave, m, lam0 + h)
              - rational_symbol(k_wave, m, lam0 - h)).real / (2.0 * h)
        assert jordan_condition(k_wave, bhat, lam0) == pytest.approx(
            fd / alpha, rel=1e-5
        )

    def test_ratio_survives_a_change_of_time_unit(self, k_two):
        # rates x s, lam0 x s and beta x s^2 scale f' and its size by s
        lam0 = np.random.default_rng(5).uniform(-3.0, 2.0, 50)
        want = jordan_ratio(k_two, 10.0, lam0)
        for s in (1e-3, 1e3, 1e6):
            k_s = ExponentialKernel(k_two.amplitudes,
                                    tuple(s * b for b in k_two.rates))
            assert np.allclose(jordan_ratio(k_s, 10.0 * s * s, s * lam0),
                               want, rtol=1e-12, atol=0.0)

    def test_zero_eigenvalue_rejected(self, k_wave):
        with pytest.raises(ValueError):
            jordan_condition(k_wave, 0.5, 0.0)
        with pytest.raises(ValueError):
            jordan_condition(k_wave, 0.5, np.array([-1.0, 0.0]))

    def test_array_matches_scalar_calls(self, k_two):
        lam0 = np.random.default_rng(4).uniform(-3.0, 2.0, 100)
        for bhat in (0.0, 0.6):
            assert np.array_equal(
                jordan_condition(k_two, bhat, lam0),
                [jordan_condition(k_two, bhat, float(x)) for x in lam0])

    def test_undamped_limit(self, k_wave):
        assert jordan_condition(k_wave, 0.0, -2.0) == pytest.approx(1.0)


class TestSplitResidual:
    def test_reconstructs_symbol(self, k_two):
        m = ModeCoefficients(12.0, 4.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.normal(), rng.normal() + 2.0
            r1, r2 = real_imag_residual(k_two, m, x, y)
            assert complex(r2, y * r1) == pytest.approx(
                rational_symbol(k_two, m, complex(x, y)), rel=1e-12
            )

    def test_vanishes_at_eigenvalue(self, k_wave):
        m = ModeCoefficients(40.0, 20.0)
        roots = mode_spectra(k_wave, [m.alpha], [m.beta])[0]
        z = roots[roots.imag > 0][0]
        r1, r2 = real_imag_residual(k_wave, m, z.real, z.imag)
        assert abs(r1) < 1e-9 * (1.0 + m.alpha)
        assert abs(r2) < 1e-9 * (1.0 + m.alpha)

    def test_pole_hit_rejected(self, k_wave):
        with pytest.raises(ValueError):
            real_imag_residual(k_wave, ModeCoefficients(1.0, 0.5), -0.5, 0.0)
