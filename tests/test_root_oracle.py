"""The companion-matrix root oracle on ascending coefficient arrays, and
the 40-digit inertia count of the FD matrix.

The oracle's all_roots is checked against the quadratic formula and against
known factored forms; mpmath_inertia against the float count of the FD
route on the benchmark's two-term anchor.
"""

import numpy as np
import pytest

from memspec import discretize_1d, nonlinear_eigenvalues_fd, pencil
from memspec.errors import RootFindingError
from root_oracle import all_roots, from_roots, mpmath_inertia


class TestFromRoots:
    def test_from_roots(self):
        p = from_roots([1.0, -2.0, 1j, -1j])
        # (x-1)(x+2)(x^2+1) = x^4 + x^3 - x^2 + x - 2
        assert np.allclose(p, (-2.0, 1.0, -1.0, 1.0, 1.0), atol=1e-12)

    def test_from_roots_needs_conjugate_closure(self):
        with pytest.raises(ValueError):
            from_roots([1j, 2.0])


class TestAllRoots:
    def test_linear(self):
        # trailing zeros are dropped: the degree is 1
        roots = all_roots(np.array([6.0, -2.0, 0.0, 0.0]))
        assert np.allclose(roots, [3.0])

    def test_quadratic_formula_real(self):
        # x^2 - 3x + 2, discriminant oracle in full precision
        b, c = -3.0, 2.0
        disc = np.sqrt(b * b - 4.0 * c)
        want = sorted([(-b - disc) / 2.0, (-b + disc) / 2.0])
        got = all_roots(np.array([c, b, 1.0]))
        assert np.allclose(got, want, atol=1e-12)

    def test_quadratic_formula_complex(self):
        # x^2 + 2x + 5 has roots -1 +- 2i
        got = all_roots(np.array([5.0, 2.0, 1.0]))
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
            scaled = coeffs / np.max(np.abs(coeffs))
            for z in all_roots(coeffs, tol=1e-10):
                scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(scaled))
                value = np.polyval(scaled[::-1], z)
                assert abs(value) <= 1e-10 * scale * 1.0001

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            all_roots(np.array([1.0]))
        with pytest.raises(ValueError):
            all_roots(np.zeros(3))

    def test_failure_carries_best_iterates(self):
        p = from_roots([1.0, 1.000001, -3.0])
        with pytest.raises(RootFindingError) as exc:
            all_roots(p, tol=1e-300)
        assert exc.value.best is not None


def test_inertia_matches_float_count(k_two):
    # the benchmark's two-term anchor (profile 0.5..0.75, n = 100): at the
    # midpoints of the sorted poles, real roots and 0, the 40-digit count is
    # the float count of the FD route, and falls from r = n to 0 by one
    # across each root of both pole gaps
    n = 100
    x = np.arange(1, n + 1) / (n + 1)
    mat_a, mat_b = discretize_1d(1.0, np.interp(x, [0, 1], [0.5, 0.75]), n)
    lam, _ = nonlinear_eigenvalues_fd(mat_a, mat_b, k_two)
    edges = np.append(-np.array(k_two.rates), 0.0)
    pts = np.sort(np.concatenate((edges, lam.real[lam.imag == 0.0])))
    mids = 0.5 * (pts[:-1] + pts[1:])
    want = [mpmath_inertia(mid, mat_a, mat_b, k_two) for mid in mids]
    got = pencil._inertia(mids, pencil._sweep_setup(mat_a, mat_b, k_two, n))
    assert got.tolist() == want
    assert want == [*range(n, -1, -1)] * 2
