"""Polynomial container and the companion-matrix root oracle.

The oracle's all_roots is checked against the quadratic formula and against
known factored forms.
"""

import numpy as np
import pytest

from memspec import RealPolynomial
from memspec.errors import RootFindingError
from root_oracle import all_roots, from_roots


def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestRealPolynomial:
    def test_trailing_zeros_stripped(self):
        p = RealPolynomial((1.0, 2.0, 0.0, 0.0))
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            RealPolynomial((0.0, 0.0))
        with pytest.raises(ValueError):
            RealPolynomial(())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            RealPolynomial((1.0, np.nan))

    def test_evaluation_matches_horner(self):
        coeffs = (3.0, -1.5, 0.25, 2.0)
        p = RealPolynomial(coeffs)
        for x in (-2.3, 0.0, 1.0, 4.5):
            assert p(x) == pytest.approx(_horner(coeffs, x), rel=1e-14)

    def test_from_roots(self):
        p = from_roots([1.0, -2.0, 1j, -1j])
        # (x-1)(x+2)(x^2+1) = x^4 + x^3 - x^2 + x - 2
        assert np.allclose(p.coeffs, (-2.0, 1.0, -1.0, 1.0, 1.0), atol=1e-12)

    def test_from_roots_needs_conjugate_closure(self):
        with pytest.raises(ValueError):
            from_roots([1j, 2.0])

    def test_scaled_preserves_roots(self):
        p = RealPolynomial((8.0, -2.0, 4.0))
        q = p.scaled()
        assert max(abs(c) for c in q.coeffs) == 1.0
        for z in all_roots(p):
            assert abs(q(z)) < 1e-12


class TestAllRoots:
    def test_linear(self):
        roots = all_roots(RealPolynomial((6.0, -2.0)))
        assert np.allclose(roots, [3.0])

    def test_quadratic_formula_real(self):
        # x^2 - 3x + 2, discriminant oracle in full precision
        b, c = -3.0, 2.0
        disc = np.sqrt(b * b - 4.0 * c)
        want = sorted([(-b - disc) / 2.0, (-b + disc) / 2.0])
        got = all_roots(RealPolynomial((c, b, 1.0)))
        assert np.allclose(got, want, atol=1e-12)

    def test_quadratic_formula_complex(self):
        # x^2 + 2x + 5 has roots -1 +- 2i
        got = all_roots(RealPolynomial((5.0, 2.0, 1.0)))
        assert np.allclose(sorted(got, key=lambda z: z.imag), [-1 - 2j, -1 + 2j])

    def test_conjugate_pairs_are_exact(self):
        p = from_roots([-0.1 + 4.7j, -0.1 - 4.7j,
                                       -2.0, 0.3 + 1j, 0.3 - 1j])
        roots = all_roots(p)
        for z in roots:
            assert np.conj(z) in roots

    def test_triple_root_cluster(self):
        p = from_roots([1.0, 1.0, 1.0])
        roots = all_roots(p, tol=1e-10)
        assert len(roots) == 3
        assert np.allclose(roots, 1.0, atol=1e-3)

    def test_residual_guarantee(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            coeffs = rng.normal(size=7)
            coeffs[-1] += np.sign(coeffs[-1]) + 0.1
            p = RealPolynomial(tuple(coeffs))
            for z in all_roots(p, tol=1e-10):
                scale = sum(abs(c) * abs(z) ** i
                            for i, c in enumerate(p.scaled().coeffs))
                assert abs(p.scaled()(z)) <= 1e-10 * scale * 1.0001

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            all_roots(RealPolynomial((1.0,)))

    def test_failure_carries_best_iterates(self):
        p = from_roots([1.0, 1.000001, -3.0])
        with pytest.raises(RootFindingError) as exc:
            all_roots(p, tol=1e-300)
        assert exc.value.best is not None
