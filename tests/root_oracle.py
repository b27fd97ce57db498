"""Test oracles: companion-matrix roots of dense real polynomials, given as
arrays of ascending coefficients, the split real/imaginary form of the mode
symbol, and a 40-digit inertia count of the FD matrix T(x).

No solver path uses :func:`all_roots` (companion-matrix eigenvalues via
``numpy.roots``, Newton polish, exact conjugate pairs, a relative residual
bound); the tests check it against closed forms and use it as a second,
independent root finder.  :func:`real_imag_residual` evaluates the mode
symbol term by term in real arithmetic.  :func:`mpmath_inertia` counts the
negative pivots of T(x) at 40 digits, with its own Khat.
"""

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npp

from memspec import RootFindingError


def from_roots(roots) -> np.ndarray:
    """Ascending coefficients of the monic polynomial with the given
    (conjugate-closed) root multiset."""
    c = npp.polyfromroots(np.asarray(roots, dtype=complex))
    if np.max(np.abs(c.imag)) > 1e-9 * max(1.0, np.max(np.abs(c.real))):
        raise ValueError("root multiset is not conjugate-closed")
    return c.real


def _residual_scale(coeffs: np.ndarray, z: complex) -> float:
    """Natural evaluation scale sum_k |c_k| |z|^k used for relative residuals."""
    return float(npp.polyval(abs(z), np.abs(coeffs)))


def _newton_polish(coeffs: np.ndarray, dcoeffs: np.ndarray, z: complex,
                   steps: int = 4) -> complex:
    for _ in range(steps):
        pv = npp.polyval(z, coeffs)
        dv = npp.polyval(z, dcoeffs)
        if dv == 0:
            break
        step = pv / dv
        if not np.isfinite(step):
            break
        z_new = z - step
        if abs(npp.polyval(z_new, coeffs)) <= abs(pv):
            z = z_new
        else:
            break
    return z


def _symmetrize_conjugates(roots: np.ndarray, tol: float) -> np.ndarray:
    """Snap near-real roots to the axis and enforce exact conjugate pairing."""
    out = []
    pos, neg = [], []
    for z in roots:
        if abs(z.imag) <= 100.0 * tol * (1.0 + abs(z)):
            out.append(complex(z.real, 0.0))
        elif z.imag > 0:
            pos.append(z)
        else:
            neg.append(z)
    neg = list(neg)
    for z in pos:
        if neg:
            i = int(np.argmin([abs(z - np.conj(w)) for w in neg]))
            w = neg.pop(i)
            avg = 0.5 * (z + np.conj(w))
            out.append(avg)
            out.append(np.conj(avg))
        else:
            out.append(z)
    out.extend(neg)
    arr = np.array(out, dtype=complex)
    return arr[np.lexsort((arr.imag, arr.real))]


def all_roots(coeffs, tol: float = 1e-10) -> np.ndarray:
    """All complex roots, with multiplicity and sorted by (re, im), of the
    real polynomial p with ascending coefficients ``coeffs``.

    Trailing zeros are dropped and the rest divided by their largest
    magnitude, giving c.  Every returned root z satisfies
    |p(z)| <= tol * sum_k |c_k| |z|^k with p scaled to c, and the set is
    closed under conjugation.  Raises :class:`RootFindingError` with the best
    iterates attached when the residual guarantee cannot be met.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if c.size < 2:
        raise ValueError("degree must be at least 1")
    c = c / np.max(np.abs(c))
    if c.size == 2:
        roots = np.array([-c[0] / c[1]], dtype=complex)
    else:
        roots = np.roots(c[::-1])
    dc = npp.polyder(c)
    roots = np.array([_newton_polish(c, dc, z) for z in roots])
    roots = _symmetrize_conjugates(roots, tol)
    bad = []
    for z in roots:
        if abs(npp.polyval(z, c)) > tol * max(_residual_scale(c, z), 1e-300):
            bad.append(z)
    if bad:
        raise RootFindingError(
            f"residual guarantee failed for roots {bad}", best=roots
        )
    return roots


def real_imag_residual(k, m, x: float, y: float) -> tuple[float, float]:
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


def mpmath_inertia(x: float, mat_a, mat_b, k) -> int:
    """nu(x), the number of negative pivots d_i - o_i^2 / piv_(i-1) of the
    real symmetric tridiagonal T(x) = x^2 + A - Khat(x) A_b at 40 digits,
    with Khat(x) = sum_j a_j b_j / (x + b_j) summed here, for the banded
    stencils ``mat_a`` and ``mat_b`` (``diag`` and ``off``) of A and A_b.
    By Sylvester's law of inertia it is the number of negative eigenvalues
    of T(x)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        khat = sum(mpmath.mpf(a) * b / (x + b)
                   for a, b in zip(k.amplitudes, k.rates))
        off = [0] + [-khat * b + a for a, b in zip(mat_a.off, mat_b.off)]
        count, piv = 0, 1
        for d_a, d_b, o in zip(mat_a.diag, mat_b.diag, off):
            piv = x * x - khat * d_b + d_a - o * o / piv
            count += piv < 0
        return count
