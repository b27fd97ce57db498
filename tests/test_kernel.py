"""Exponential-sum kernel: construction rules and transform values.

The Laplace transform is checked against mpmath quadrature of the transform
integral, with the kernel written inline, and its derivative against central
finite differences, so neither test reuses the closed-form expressions under
test.
"""

import math

import mpmath
import numpy as np
import pytest

from memspec import ExponentialKernel


def test_terms_sorted_by_rate():
    k = ExponentialKernel((0.2, 1.0), (1.5, 1.0))
    assert k.rates == (1.0, 1.5)
    assert k.amplitudes == (1.0, 0.2)
    assert k.n_terms == 2
    assert k.amplitude_sum == pytest.approx(1.2)


@pytest.mark.parametrize("amps,rates", [
    ((1.0,), (1.0, 2.0)),       # length mismatch
    ((), ()),                   # empty
    ((0.0,), (1.0,)),           # zero amplitude
    ((-1.0,), (1.0,)),          # negative amplitude
    ((1.0,), (0.0,)),           # zero rate
    ((1.0,), (-2.0,)),          # negative rate
    ((math.nan,), (1.0,)),      # non-finite amplitude
    ((1.0, 1.0), (2.0, 2.0)),   # duplicate rates
])
def test_invalid_kernels_rejected(amps, rates):
    with pytest.raises(ValueError):
        ExponentialKernel(amps, rates)


@pytest.mark.parametrize("lam", [0.3, 1.0, 4.7])
def test_laplace_matches_numerical_transform(lam):
    # Khat(lam) = int_0^inf sum_j a_j b_j e^{-(b_j + lam) t} dt, the
    # transform of -K'(t), integrated at 30 digits
    k = ExponentialKernel((0.9, 0.1), (0.5, 2.0))
    with mpmath.workdps(30):
        oracle = mpmath.quad(
            lambda t: 0.9 * 0.5 * mpmath.exp(-(0.5 + lam) * t)
            + 0.1 * 2.0 * mpmath.exp(-(2.0 + lam) * t), [0, mpmath.inf])
    assert k.laplace(lam) == pytest.approx(float(oracle), rel=1e-14)


def test_laplace_complex_argument():
    k = ExponentialKernel((0.9,), (0.5,))
    lam = 0.3 + 2.0j
    assert k.laplace(lam) == pytest.approx(0.45 / (lam + 0.5), rel=1e-14)


def test_laplace_deriv_matches_finite_difference():
    k = ExponentialKernel((0.9, 0.1), (0.5, 2.0))
    for lam in (0.7, -0.2 + 1.5j):
        h = 1e-6
        fd = (k.laplace(lam + h) - k.laplace(lam - h)) / (2.0 * h)
        assert k.laplace_deriv(lam) == pytest.approx(fd, rel=1e-8)


def test_laplace_next_to_and_on_a_pole():
    # 1e-13 from a pole both transforms are the finite partial-fraction
    # sums; on a pole they are not finite, with numpy's divide warning
    k = ExponentialKernel((0.9, 0.1), (0.5, 2.0))
    lam = np.array([-0.5 + 1e-13, -2.0 + 1e-13j])
    terms = np.array([0.45 / (lam + 0.5), 0.2 / (lam + 2.0)])
    assert np.all(np.isfinite(k.laplace(lam)))
    assert k.laplace(lam) == pytest.approx(terms.sum(axis=0), rel=1e-14)
    assert k.laplace_deriv(lam) == pytest.approx(
        -(terms ** 2 / np.array([0.45, 0.2])[:, None]).sum(axis=0),
        rel=1e-14)
    for evaluate in (k.laplace, k.laplace_deriv):
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert not np.isfinite(evaluate(-2.0))
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            values = evaluate(np.array([[0.3, -0.5], [-2.0, 1.0]]))
        assert np.isfinite(values).tolist() == [[True, False], [False, True]]


def test_array_evaluation_matches_scalar_calls():
    # a real array gives the scalar values bit for bit; on a complex array
    # numpy may divide complex numbers differently from one element to the
    # next and from Python, so agreement is to 1e-14 of the terms' size
    k = ExponentialKernel((0.9, 0.1, 0.03), (0.5, 2.0, 40.0))
    rng = np.random.default_rng(8)
    real = rng.uniform(-60.0, 5.0, 200)
    lam = real + 1j * rng.normal(scale=3.0, size=200)
    for evaluate in (k.laplace, k.laplace_deriv):
        assert np.array_equal(evaluate(real),
                              [evaluate(float(x)) for x in real])
    for evaluate, power in ((k.laplace, 1), (k.laplace_deriv, 2)):
        terms = [[a * b / (complex(z) + b) ** power
                  for a, b in zip(k.amplitudes, k.rates)] for z in lam]
        want = [(-1) ** (power + 1) * sum(t) for t in terms]
        size = np.array([sum(abs(x) for x in t) for t in terms])
        got = evaluate(lam)
        assert np.all(np.abs(got - want) <= 1e-14 * size)
        assert np.all(np.abs(got - [evaluate(complex(z)) for z in lam])
                      <= 1e-14 * size)
        assert evaluate(lam.reshape(10, 20)).shape == (10, 20)


def test_dissipativity_margin():
    k = ExponentialKernel((0.9,), (0.5,))
    assert k.dissipativity_margin(0.5) == pytest.approx(0.55)
    assert k.dissipativity_margin(0.0) == 1.0
    assert k.dissipativity_margin(2.0) < 0.0
    with pytest.raises(ValueError):
        k.dissipativity_margin(-1.0)
