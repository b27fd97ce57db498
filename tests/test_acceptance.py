"""Acceptance suite: every headline number and guarantee at its tolerance.

Each criterion prints one PASS or FAIL line on the real stdout so the
verdicts are visible even under pytest capture.  Oracles are recomputed
inline (closed forms, quadratic formula, bisection, brute enumeration) so
no criterion certifies the implementation against itself.
"""

import functools

import numpy as np
import pytest

from memspec import (
    BoxDomain,
    DampingBound,
    ExponentialKernel,
    ModeCoefficients,
    ModePencil,
    cleared_mode_polynomial,
    discretize_1d,
    enclosure_interval,
    enumerate_modes,
    essential_spectrum,
    jordan_condition,
    min_stiffness,
    mode_alpha,
    mode_spectra,
    nonlinear_eigenvalues_fd,
    one_pole_region,
)
from root_oracle import all_roots, from_roots
from test_scalar import two_term_zero_oracle

K_GRADED = ExponentialKernel((1.0,), (1.0,))
D_GRADED = DampingBound(0.5, 0.75)

K_WAVE = ExponentialKernel((0.9,), (0.5,))
D_HALF = DampingBound(0.5, 0.5)


_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _grab_reporter(request):
    # the terminal reporter bypasses output capture, so the verdict lines
    # always reach the console
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def _say(line):
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line)


def criterion(num, label):
    """Print a pass/fail verdict line for one acceptance criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _say(f"criterion {num} ({label}): FAIL")
                raise
            _say(f"criterion {num} ({label}): PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def constant_example():
    """Modal spectrum of the constant-damping box example, |Im| <= 50."""
    box = BoxDomain((1.0, 4.0))
    w_min = min_stiffness(2.0, box)
    region = one_pole_region(K_WAVE, D_HALF, w_min)
    alpha_cap = (1.1 * 50.0) ** 2 + w_min
    per_mode = []
    for alpha in mode_alpha(2.0, box, enumerate_modes(2.0, box, alpha_cap)):
        per_mode.append((alpha, mode_spectra(K_WAVE, [alpha],
                                             [0.5 * alpha])[0]))
    return w_min, region, per_mode


@pytest.fixture(scope="module")
def fd_example():
    """Constant-damping FD discretization with a 180-square companion."""
    n = 60
    mat_a, mat_b = discretize_1d(1.0, np.full(n, 0.5), n)
    lam, _ = nonlinear_eigenvalues_fd(mat_a, mat_b, K_WAVE, imag_cap=np.inf)
    return mat_a.toarray(), lam


@criterion(1, "graded one-term region")
def test_graded_one_term_region():
    ess = essential_spectrum(K_GRADED, D_GRADED)
    assert len(ess.intervals) == 1
    lo, hi = ess.intervals[0]
    assert abs(lo - (-0.5)) <= 1e-12
    assert abs(hi - (-0.25)) <= 1e-12

    w_min = min_stiffness(1.0, BoxDomain((1.0, 1.0)))
    region = one_pole_region(K_GRADED, D_GRADED, w_min)
    assert abs(region.c0 - (-0.506413)) <= 1e-4
    assert region.one_pole.d0 == -0.375
    assert abs(region.one_pole.d1 - (-0.2468)) <= 1e-3
    assert abs(region.one_pole.hat_d - 4.3839) <= 1e-3


@criterion(2, "constant-damping box example")
def test_constant_damping_example(constant_example):
    w_min, region, per_mode = constant_example
    s = region.one_pole
    assert abs(region.c0 - (-0.2758)) <= 2e-4
    assert abs(region.c1 - (-0.275)) <= 1e-12
    assert abs(s.d0 - (-0.11250)) <= 1e-5
    assert abs(s.d1 - (-0.11209)) <= 5e-5
    assert abs(s.hat_d - 4.5715) <= 2e-4

    # every eigenvalue with |Im| <= 50 sits in the region inflated by 1e-8
    checked = 0
    for _, roots in per_mode:
        for z in roots:
            if abs(z.imag) <= 50.0:
                assert region.contains(z, 1e-8), z
                if z.imag != 0.0:
                    assert s.d0 - 1e-8 <= z.real <= s.d1 + 1e-8, z
                    assert abs(z.imag) >= s.hat_d - 1e-8, z
                checked += 1
    assert checked > 100

    # the single real eigenvalue per mode approaches c1 strictly
    # monotonically over the first 50 distinct stiffness values
    seen, gaps = set(), []
    for alpha, roots in per_mode:
        key = round(alpha, 9)
        if key in seen:
            continue
        seen.add(key)
        real = [z.real for z in roots if z.imag == 0.0]
        assert len(real) == 1
        gaps.append(abs(real[0] - region.c1))
        if len(gaps) == 50:
            break
    assert len(gaps) == 50
    assert all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:]))


@criterion(3, "two-term essential spectrum")
def test_two_term_essential():
    k = ExponentialKernel((1.0, 0.2), (1.0, 1.5))
    ess = essential_spectrum(k, D_GRADED)
    assert len(ess.intervals) == 2
    lo_oracle = two_term_zero_oracle(k, 0.5)
    hi_oracle = two_term_zero_oracle(k, 0.75)
    for j, (lo, hi) in enumerate(ess.intervals):
        assert abs(lo - lo_oracle[j]) <= 1e-10
        assert abs(hi - hi_oracle[j]) <= 1e-10
    # the frozen reference values (the printed upper endpoint -0.067 is not
    # reproducible from these parameters; the oracle values below are)
    assert ess.intervals[0] == pytest.approx((-1.43059, -1.41932), abs=1e-4)
    assert ess.intervals[1] == pytest.approx((-0.41941, -0.10568), abs=1e-4)


@criterion(4, "asymptotic eigenvalue branch")
def test_asymptotic_branch():
    a = 1.0
    w_min = min_stiffness(a, BoxDomain((1.0,)))
    region = one_pole_region(K_WAVE, D_HALF, w_min)
    d0 = region.one_pole.d0
    ns = np.arange(20, 61)
    re_err, im_err = [], []
    for n in ns:
        alpha = a * (n * np.pi) ** 2
        roots = mode_spectra(K_WAVE, [alpha], [0.5 * alpha])[0]
        z = roots[roots.imag > 0][0]
        re_err.append(abs(z.real - d0))
        im_err.append(abs(z.imag - np.sqrt(a) * n * np.pi))
    re_err, im_err = np.array(re_err), np.array(im_err)

    # both error branches decay at least like 1/n, with the constant fitted
    # from the first point
    c_re = 1.2 * ns[0] * re_err[0]
    c_im = 1.2 * ns[0] * im_err[0]
    assert np.all(re_err <= c_re / ns)
    assert np.all(im_err <= c_im / ns)

    # the imaginary branch carries the leading 1/n term, so its log-log
    # slope is close to -1; the real branch decays at least that fast
    slope_im = np.polyfit(np.log(ns), np.log(im_err), 1)[0]
    slope_re = np.polyfit(np.log(ns), np.log(re_err), 1)[0]
    assert -1.3 <= slope_im <= -0.7
    assert slope_re <= -0.7


def _draw_separated_kernel(rng):
    """Random kernel whose pole gaps exceed one, keeping the pole-exclusion
    determinant bound applicable."""
    n = int(rng.integers(1, 4))
    rates = [float(rng.uniform(0.2, 0.6))]
    for _ in range(n - 1):
        rates.append(rates[-1] + float(rng.uniform(1.0, 1.4)))
    amps = rng.uniform(0.1, 1.0, size=n)
    amps = amps / (1.2 * amps.sum())  # sum < 1 so moderate bhat is valid
    return ExponentialKernel(tuple(float(x) for x in amps), tuple(rates))


@criterion(5, "linearization identities")
def test_linearization_identities():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        k = _draw_separated_kernel(rng)
        bhat_hi = 0.9 / k.amplitude_sum
        bhat = float(rng.uniform(0.05, 0.99)) * bhat_hi
        alpha = float(rng.uniform(1.0, 100.0))
        beta = bhat * alpha
        mp = ModePencil(alpha, beta, k)
        m = ModeCoefficients(alpha, beta)
        poly = cleared_mode_polynomial(k, m)

        lam = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        if abs(lam) < 1e-3:
            lam += 0.5

        res = mp.equivalence_residual(lam)
        assert res <= 1e-12 * (1.0 + abs(lam) ** 2) * (1.0 + alpha)

        sop = mp.system_operator()
        want = ((-1.0) ** mp.size) * np.polyval(poly[::-1], lam)
        got = np.linalg.det(sop - lam * np.eye(mp.size))
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

        for z in mode_spectra(k, [m.alpha], [m.beta])[0]:
            v = mp.lift_to_block(z, 1.0)
            res_v = np.linalg.norm(mp.block_function(z) @ v)
            assert res_v <= 1e-9 * (1.0 + alpha) * np.linalg.norm(v)
            w = mp.lift_to_linearization(z, v)
            res_w = np.linalg.norm(mp.linearization(z) @ w)
            assert res_w <= 1e-9 * (1.0 + alpha) * (1.0 + abs(z)) \
                * np.linalg.norm(w)

        for a_j, b_j in zip(k.amplitudes, k.rates):
            det_p = np.linalg.det(mp.block_function(-b_j))
            assert abs(det_p) >= a_j * b_j * beta / 2.0


@criterion(6, "finite-difference cross-oracle")
def test_fd_cross_oracle(fd_example):
    mat_a, got = fd_example
    want = []
    for mu in np.linalg.eigvalsh(mat_a):
        want.extend(mode_spectra(K_WAVE, [mu], [0.5 * mu])[0])
    want = np.array(want)
    assert len(got) == len(want) == 3 * 60
    dist = np.abs(got[:, None] - want[None, :])
    hausdorff = max(dist.min(axis=0).max(), dist.min(axis=1).max())
    assert hausdorff <= 1e-6 * (1.0 + np.linalg.norm(mat_a, 2))


def _draw_bounded_problem(rng):
    """Random kernel, damping bounds, and stiffness level within hypothesis."""
    n = int(rng.integers(1, 4))
    rates = np.sort(rng.uniform(0.2, 4.0, size=n))
    while n > 1 and np.min(np.diff(rates)) < 0.05:
        rates = np.sort(rng.uniform(0.2, 4.0, size=n))
    amps = rng.uniform(0.1, 1.0, size=n)
    amps = amps / (float(rng.uniform(1.1, 3.0)) * amps.sum())
    k = ExponentialKernel(tuple(float(x) for x in amps), tuple(float(x) for x in rates))
    bhat_hi = 0.95 / k.amplitude_sum
    b_max = float(rng.uniform(0.05, 1.0)) * bhat_hi
    b_min = float(rng.uniform(0.5, 1.0)) * b_max
    alpha = float(np.exp(rng.uniform(np.log(0.5), np.log(5e3))))
    return k, DampingBound(b_min, b_max), alpha


def _draw_separated_roots(rng):
    """Conjugate-closed root multiset with pairwise separation >= 0.5."""
    while True:
        n_real = int(rng.integers(0, 5))
        n_pairs = int(rng.integers(1, 5))
        roots = list(rng.uniform(-10.0, 10.0, size=n_real))
        for _ in range(n_pairs):
            x = float(rng.uniform(-10.0, 10.0))
            y = float(rng.uniform(0.5, 10.0))
            roots.extend([complex(x, y), complex(x, -y)])
        arr = np.array(roots, dtype=complex)
        sep = np.abs(arr[:, None] - arr[None, :])
        np.fill_diagonal(sep, np.inf)
        if sep.min() >= 0.5:
            return arr


@criterion(7, "randomized property suites")
def test_property_suites():
    rng = np.random.default_rng(777)
    for draw in range(1000):
        k, d, alpha = _draw_bounded_problem(rng)
        roots = mode_spectra(k, [alpha], [d.b_max * alpha])[0]

        # conjugate symmetry is exact, and the spectrum is strictly damped
        for z in roots:
            assert np.conj(z) in roots
            assert z.real <= 1e-10
            assert z.real < -1e-8  # b_min > 0 keeps the axis clear

        # essential spectrum inside [c0, c1] inside (-b_N, 0]
        ess = essential_spectrum(k, d)
        c0, c1 = enclosure_interval(k, d, alpha)
        for lo, hi in ess.intervals:
            assert c0 - 1e-9 <= lo and hi <= c1 + 1e-9
        assert -k.rates[-1] < c0 <= c1 <= 1e-12

        # the undamped mode spectrum is exactly the pure imaginary pair
        und = mode_spectra(k, [alpha], [0.0])[0]
        assert len(und) == 2
        want = 1j * np.sqrt(alpha)
        assert min(abs(z - want) for z in und) <= 1e-8 * (1.0 + np.sqrt(alpha))
        assert min(abs(z + want) for z in und) <= 1e-8 * (1.0 + np.sqrt(alpha))

        # polynomial root round-trip on a separated conjugate-closed set
        if draw % 2 == 0:
            target = _draw_separated_roots(rng)
            found = all_roots(from_roots(target))
            dist = np.abs(target[:, None] - found[None, :])
            assert dist.min(axis=1).max() <= 1e-8
            assert dist.min(axis=0).max() <= 1e-8


@criterion(8, "Jordan chain length one")
def test_jordan_condition(constant_example, fd_example):
    _, _, per_mode = constant_example
    checked = 0
    for alpha, roots in per_mode:
        for z in roots:
            if z.imag == 0.0:
                assert abs(jordan_condition(K_WAVE, 0.5, z.real)) > 1e-3
                checked += 1
    _, lam = fd_example
    for z in lam:
        if z.imag == 0.0:
            assert abs(jordan_condition(K_WAVE, 0.5, z.real)) > 1e-3
            checked += 1
    assert checked > 100
