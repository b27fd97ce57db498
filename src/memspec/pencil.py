"""Finite-matrix linearizations of the rational symbol.

A scalar mode (alpha, beta) with an N-term kernel admits three equivalent
matrix realizations: the (N+1)-square block function with coupling entries
sqrt(a_j b_j beta), its (N+2)-square first-companion linearization, and a
constant (N+2)-square system operator, the kernel's memory-variable
realization with A = [[alpha]], F = [[sqrt(beta)]], whose characteristic
polynomial is the cleared mode polynomial up to the sign (-1)^(N+2).

The 1D finite-difference route for graded damping wants the eigenvalues of
the same realization with the banded FD stencils (:class:`SymTridiagonal`),
the D = 2 n + N r roots of det T(lam) prod_j (lam + b_j)^r for the
tridiagonal T(lam) = lam^2 + A - Khat(lam) A_b of rank-r damping.  They come
from Ehrlich-Aberth iteration, the real ones certified per pole gap by the
inertia of T(x), in O(D^2) time and O(D) memory, and each is checked by
inverse iteration; the pivots d - o^2 / piv of T give p'/p, the inertia,
the residual and the rank r.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import RootFindingError, listing
from .kernel import ExponentialKernel
from .scalar import ModeCoefficients, rational_symbol

_LIFT_TOL = 1e-6

_EPS = np.finfo(float).eps

#: Largest realization size (N+2) n that the FD route accepts.
MAX_REALIZATION = 2000

#: Most Ehrlich-Aberth sweeps of the FD route.
ABERTH_SWEEPS = 100

#: Relative step below which a root may stop (see :func:`_aberth_roots`).
ABERTH_STALL = 1e-11

#: Elements per block of the (grid rows, points) arrays of the
#: Ehrlich-Aberth sweeps (real and complex points in one), the inertia counts
#: and the complex residual sweep; the float64 residual sweep takes twice as
#: many.
ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class ModePencil:
    """Matrix realizations of scalar modes of the rational symbol.

    ``alpha`` and ``beta`` are numbers or equal-shape arrays of modes.  The
    matrix methods broadcast the modes' shape with that of ``lam`` over
    leading axes, so ``block_function(-rates[:, None])`` on M modes has
    shape (N, M, N+1, N+1); numbers give one matrix.
    """

    alpha: float
    beta: float
    kernel: ExponentialKernel

    def __post_init__(self):
        ModeCoefficients(self.alpha, self.beta)  # reuse the validation

    @property
    def n_terms(self) -> int:
        return self.kernel.n_terms

    @property
    def size(self) -> int:
        return self.n_terms + 2

    def coupling(self) -> np.ndarray:
        """Rows of coupling entries sqrt(a_j b_j beta), shape (..., N)."""
        ab = np.multiply(self.kernel.amplitudes, self.kernel.rates)
        return np.sqrt(ab * np.expand_dims(self.beta, -1))

    def _stack(self, lam, size: int) -> np.ndarray:
        """Zero (size)-square stack over the modes and ``lam``, with the
        memory block D + lam on the last N diagonal entries."""
        shape = np.broadcast_shapes(np.shape(self.alpha), np.shape(lam))
        big = np.zeros(shape + (size, size), dtype=complex)
        mem = np.arange(size - self.n_terms, size)
        big[..., mem, mem] = np.add(self.kernel.rates, np.expand_dims(lam, -1))
        return big

    def block_function(self, lam) -> np.ndarray:
        """(N+1)-square block matrix [[alpha + lam^2, B], [B^T, D + lam]]."""
        lam = np.asarray(lam)  # numbers and arrays round lam^2 alike
        big = self._stack(lam, self.n_terms + 1)
        cpl = self.coupling()
        big[..., 0, 0] = self.alpha + lam * lam
        big[..., 0, 1:] = cpl
        big[..., 1:, 0] = cpl
        return big

    def linearization(self, lam) -> np.ndarray:
        """(N+2)-square companion-style linearization of the block function."""
        big = self._stack(lam, self.size)
        cpl = self.coupling()
        big[..., 0, 0] = big[..., 1, 1] = -lam
        big[..., 0, 1] = -self.alpha
        big[..., 0, 2:] = -cpl
        big[..., 1, 0] = 1.0
        big[..., 2:, 1] = cpl
        return big

    def _padded_block(self, lam) -> np.ndarray:
        """Block function padded with the trivial block -lam (order H, Dhat, W)."""
        block = self.block_function(lam)
        big = np.zeros(block.shape[:-2] + (self.size, self.size), complex)
        big[..., :-1, :-1] = block
        big[..., -1, -1] = -lam
        return big

    def _padded_swapped(self, lam) -> np.ndarray:
        """Padded block function with the trivial block in the middle."""
        lam = np.asarray(lam)
        big = self._stack(lam, self.size)
        cpl = self.coupling()
        big[..., 0, 0] = self.alpha + lam * lam
        big[..., 0, 2:] = cpl
        big[..., 2:, 0] = cpl
        big[..., 1, 1] = -lam
        return big

    def equivalence_residual(self, lam):
        """Max entrywise residual of the two extension-equivalence identities.

        The permutation identity P H P^T = S between the padded block
        functions (P applied by indexing) is always checked; the factorization
        S = E L F through the linearization L (elementary E, F applied as row
        and column operations) needs -lam invertible and is masked at lam = 0.
        """
        order = [0, self.size - 1, *range(1, self.size - 1)]
        lhs = self._padded_swapped(lam)
        res = np.max(np.abs(self._padded_block(lam)[..., order, :][..., order]
                            - lhs), axis=(-2, -1))
        x = np.asarray(lam)[..., None]
        y = self.linearization(lam)  # becomes E L F
        y[..., 0, :] = -y[..., 0, :] - x * y[..., 1, :]
        y[..., 1, :] *= -x
        y[..., :2] = np.stack((x * y[..., 0] + y[..., 1], y[..., 0]), -1)
        res2 = np.max(np.abs(y - lhs), axis=(-2, -1))
        return np.maximum(res, np.where(np.asarray(lam) != 0, res2, 0.0))

    def system_operator(self) -> np.ndarray:
        """Constant (N+2)-square matrices, char poly +-(cleared symbol)."""
        return self.kernel.realization(np.expand_dims(self.alpha, (-2, -1)),
                                       np.sqrt(self.beta)[..., None, None])

    def lift_to_block(self, lam: complex, v1: complex) -> np.ndarray:
        """Eigenvector [v1, -(b_j + lam)^-1 B_j v1] of the block function."""
        if v1 == 0:
            raise ValueError("v1 must be nonzero")
        rates = np.asarray(self.kernel.rates)
        with np.errstate(divide="ignore", invalid="ignore"):  # at a pole
            symbol = rational_symbol(
                self.kernel, ModeCoefficients(self.alpha, self.beta), lam)
        if not abs(symbol) * abs(v1) <= _LIFT_TOL * (1.0 + self.alpha):
            raise ValueError(
                f"lam = {lam} is not an eigenvalue of the scalar symbol"
            )
        v = np.empty(self.n_terms + 1, dtype=complex)
        v[0] = v1
        v[1:] = -self.coupling() / (rates + lam) * v1
        return v

    def lift_to_linearization(self, lam: complex, v23: np.ndarray) -> np.ndarray:
        """Eigenvector [lam*v2, v2, v3] of the linearization."""
        v23 = np.asarray(v23, dtype=complex)
        if v23.shape != (self.n_terms + 1,):
            raise ValueError(f"expected length {self.n_terms + 1} vector")
        norm = np.linalg.norm(v23)
        if norm == 0.0:
            raise ValueError("zero vector cannot be lifted")
        res = np.linalg.norm(self.block_function(lam) @ v23)
        if res > _LIFT_TOL * (1.0 + self.alpha) * norm:
            raise ValueError(
                f"input is not a block-function eigenvector (residual {res})"
            )
        return np.concatenate(([lam * v23[0]], v23))


@dataclass(frozen=True, eq=False)
class SymTridiagonal:
    """Symmetric tridiagonal n x n matrix as its bands: the diagonal ``diag``
    (n entries) and the off-diagonal ``off`` (n - 1), above and below."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        for name in ("diag", "off"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=float))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diag), len(self.diag))

    def toarray(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def norm_inf(self) -> float:
        off = np.abs(np.concatenate(([0.0], self.off, [0.0])))
        return float(np.max(off[:-1] + np.abs(self.diag) + off[1:]))


def discretize_1d(a: float, b_values, n_points: int, length: float = 1.0
                  ) -> tuple[SymTridiagonal, SymTridiagonal]:
    """Three-point Dirichlet stencils (A, A_b) on a uniform interior grid.

    ``b_values`` holds the damping profile at the interior nodes; face values
    are arithmetic means of adjacent nodes, with one-sided values at the
    boundary.  A is symmetric positive definite, A_b symmetric positive
    semi-definite, and a constant profile gives A_b = b * A exactly.
    """
    if n_points < 3:
        raise ValueError(f"need at least 3 grid points, got {n_points}")
    b_values = np.asarray(b_values, dtype=float)
    if b_values.shape != (n_points,):
        raise ValueError(
            f"profile must have one value per node, got shape {b_values.shape}"
        )
    if not np.all(np.isfinite(b_values)) or np.any(b_values < 0.0):
        raise ValueError("profile values must be finite and nonnegative")
    h = length / (n_points + 1)
    w = a / (h * h)
    mat_a = SymTridiagonal(np.full(n_points, 2.0 * w),
                           np.full(n_points - 1, -w))
    faces = np.empty(n_points + 1)
    faces[0] = b_values[0]
    faces[-1] = b_values[-1]
    faces[1:-1] = 0.5 * (b_values[:-1] + b_values[1:])
    return mat_a, SymTridiagonal(w * (faces[:-1] + faces[1:]),
                                 -w * faces[1:-1])


def stiffness_eigenvalues(a: float, n_points: int, length: float,
                          index) -> np.ndarray:
    """Eigenvalues (4a/h^2) sin^2(k pi / (2 (n+1))) of the stencil A of
    :func:`discretize_1d` at the ascending 1-based positions k in ``index``,
    without building A."""
    h = length / (n_points + 1)
    angle = np.asarray(index) * np.pi / (2 * (n_points + 1))
    return 4.0 * a / (h * h) * np.sin(angle) ** 2


def _pivots(off_sq, piv, carry, tiny=None):
    """LU pivots without row exchanges of symmetric tridiagonal matrices,
    one per column along axis 1: piv_i = d_i - off_sq_i / piv_(i-1) in
    place over ``piv`` (d on entry), from piv_(-1) = ``carry``; returns the
    last.  With ``tiny``, one value per column, a pivot (or carry) that is
    exactly zero is replaced by it before use, as LAPACK's dlagts perturbs a
    singular factor for inverse iteration."""
    q = np.empty_like(carry)
    for o_sq, row in zip(off_sq, piv):  # two calls per row
        if tiny is not None:
            np.copyto(carry, tiny, where=carry == 0.0)
        carry = np.subtract(row, np.divide(o_sq, carry, q), row)
    if tiny is not None:
        np.copyto(carry, tiny, where=carry == 0.0)
    return carry


def _damping_rank(mat_b: SymTridiagonal) -> int:
    """Eigenvalues of the symmetric tridiagonal A_b above
    m * eps * ||A_b||_inf, by the inertia of the pivots d - e^2 / q of A_b
    minus that level (the Sturm count of LAPACK's dstebz), counted in one
    loop over float64 scalars: the bits of :func:`_pivots` on one column."""
    diag = mat_b.diag - mat_b.shape[0] * _EPS * mat_b.norm_inf()
    carry = diag[0]
    count = int(carry > 0.0)
    with np.errstate(all="ignore"):
        for d, o_sq in zip(diag[1:], mat_b.off ** 2):
            carry = d - o_sq / carry
            count += carry > 0.0
    return int(count)


def _sweep_setup(mat_a, mat_b, k: ExponentialKernel, rank: int):
    """The band columns of A and A_b, the rates, the weights a_j b_j and the
    rank, which every sweep of one solve reads."""
    # o_i couples rows i - 1 and i; row 0 follows an uncoupled piv = 1
    (al, ad), (bl, bd) = ((np.concatenate(([0.0], mat.off))[:, None],
                           mat.diag[:, None]) for mat in (mat_a, mat_b))
    rates = np.asarray(k.rates)
    return al, ad, bl, bd, rates, np.asarray(k.amplitudes) * rates, rank


def _log_derivative(x, z, setup):
    """p'/p at the real points x (float64) and the complex points z for
    p(lam) = det T(lam) prod_j (lam + b_j)^rank, from one recurrence over
    the pivots of the symmetric T(lam) at all points, piv_(i+1) = d_(i+1)
    - q with q = o_i^2 / piv_i, in blocks of rows so that no (m, points)
    array is built: at real x by complex step, Im piv / (h Re piv) at
    T(x + i h) (Squire & Trapp, SIAM Review 40, 1998), and at complex z
    with piv'_(i+1) = d'_(i+1) - (2 o_i o'_i - q piv'_i) / piv_i beside
    it; a call without complex points sets up no duals.  Each column's
    arithmetic is its own."""
    al, ad, bl, bd, rates, weights, rank = setup
    n_real, pts = x.size, np.concatenate((x, z))  # the real points as x + 0j
    inv = 1.0 / np.add.outer(rates, pts)
    khat, d_khat = np.zeros((2, pts.size), complex)
    for w, row in zip(weights, inv):  # rate order
        khat += w * row
        d_khat -= w * row * row
    total = rank * np.add.reduce(inv, 0)
    # real roots lie a fraction of b_1 or more from 0 and 2^-53 |x| or more
    # from each pole, so h = 2^-70 max(|x|, b_1) is 2^-17 of that or less;
    # the O(h^2) parts of the pivots fall below rounding from 1e-13 |x| off
    # a pole or zero pivot (at a simple one Im / Re is exact), and h piv'
    # underflows only where x^2 does
    h = 2.0 ** -70 * np.maximum(np.abs(x), rates[0])
    z_sq = pts * pts
    khat.imag[:n_real] = h * d_khat.real[:n_real]
    z_sq.imag[:n_real] = 2.0 * h * x
    cplx = slice(n_real, None)
    x_total, z_total = total.real[:n_real].copy(), total[cplx]
    rows = max(8, ROW_BLOCK // max(pts.size, 1))
    bufs = np.empty((2, min(rows, ad.size)) + pts.shape, complex)
    piv = np.ones_like(pts)
    if z.size:
        z_2, d_khat, d_khat_2 = 2.0 * z, d_khat[cplx], -2.0 * d_khat[cplx]
        d_piv, t = np.zeros(z.size, complex), np.empty_like(z)
        q = np.empty_like(pts)
        duals = np.empty((2, min(rows, ad.size)) + z.shape, complex)
    for start in range(0, ad.size, rows):
        block = slice(start, start + rows)
        diag, off_sq = bufs[:, :ad[block].size]
        np.subtract(ad[block], np.multiply(khat, bd[block], diag), diag)
        diag += z_sq
        np.subtract(al[block], np.multiply(khat, bl[block], off_sq), off_sq)
        if not z.size:  # the pivots alone, two ufunc calls per row, not six
            off_sq *= off_sq
            piv = _pivots(off_sq, diag, piv).copy()  # out of the reused rows
        else:
            d_diag, d_off_sq = duals[:, :ad[block].size]
            np.subtract(z_2, np.multiply(d_khat, bd[block], d_diag), d_diag)
            np.multiply(np.multiply(d_khat_2, bl[block], d_off_sq),
                        off_sq[:, cplx], d_off_sq)
            off_sq *= off_sq
            for o_sq, d_o_sq, d, d_d in zip(off_sq, d_off_sq, diag, d_diag):
                np.divide(o_sq, piv, q)
                np.multiply(q[cplx], d_piv, t)
                np.subtract(d_o_sq, t, t)
                np.divide(t, piv[cplx], t)
                piv = np.subtract(d, q, d)
                d_piv = np.subtract(d_d, t, d_d)
            piv, d_piv = piv.copy(), d_piv.copy()
            z_total += np.add.reduce(np.divide(d_diag, diag[:, cplx],
                                               d_diag))
        real = diag[:, :n_real]
        x_total += np.add.reduce(np.divide(real.imag, real.real,
                                           real.imag)) / h
    return x_total, z_total


def _deflation(points, own, moved, n_real: int):
    """sum_j 1 / (z - z_j) at z = moved[own] over the other roots (moved and
    the conjugates of moved[n_real:]) in row chunks; real points in float64,
    a pair c as 2 (x - Re c) / ((x - Re c)^2 + (Im c)^2), complex points
    over all roots (the paired form cancels next to clusters)."""
    if points.dtype.kind == "f":
        cols, pairs = moved[:n_real].real, moved[n_real:]
    else:  # all roots, and no pair term
        cols = np.concatenate((moved, np.conj(moved[n_real:])))
        pairs = moved[:0]
    total, im_sq = np.empty_like(points), pairs.imag * pairs.imag
    rows = max(1, ROW_BLOCK // (cols.size + pairs.size))
    for start in range(0, points.size, rows):
        part = slice(start, start + rows)
        diff = points[part, None] - cols
        diff[np.arange(diff.shape[0]), own[part]] = np.inf
        total[part] = np.add.reduce(np.divide(1.0, diff, diff), 1)
        if pairs.size:
            t = np.subtract(points[part, None], pairs.real)
            sq = np.multiply(t, t)
            sq += im_sq
            t += t
            total[part] += np.add.reduce(np.divide(t, sq, t), 1)
    return total


def _aberth_roots(mat_a, mat_b, k: ExponentialKernel, rank: int,
                  imag_cap: float = np.inf):
    """The D = 2 m + N rank roots of det T(lam) prod_j (lam + b_j)^rank by
    Ehrlich-Aberth, the real ones through :func:`_certified_real`.

    The starts are the roots of the modes at the stiffness eigenvalues of
    the stencil A, with damping values from the sorted profile
    diag(A_b) / diag(A) and zero for the m - rank smallest: -+i sqrt(alpha)
    (real parts +0.0) at damping 0, else the eigenvalues of one ``eigvals``
    call on the stacked (N+2)-square realizations, unpolished, since the
    sweeps refine every start; LAPACK gives them exactly real or in exact
    conjugate pairs.  The real starts and those with Im > 0 are moved; the
    others are their conjugates, so real roots stay exactly real and the
    rest come in exact conjugate pairs (at rank 0 on the imaginary axis:
    p'/p and every deflation term are imaginary).  Each sweep takes p'/p at
    all points still moving in one :func:`_log_derivative` call and moves
    each by 1 / (p'/p - sum_j 1 / (z - z_j)) over all other roots
    (:func:`_deflation`), skipping a kind of point none of which moves.  A
    root stops, its step applied, on a step below ABERTH_STALL |z| and 1e-6
    of its last one and at least half the Newton step 1 / |p'/p| (about
    1e-17 |z| from its limit); unmoved once a step below ABERTH_STALL |z| is
    no shorter than its last one (it only jitters at rounding level); below
    two ulps of z; or unrefined once a converging iterate is ten of its
    steps beyond ``imag_cap``.  The starts give D values, so the count is
    D, but with a finite cap they need not hold every root within it: an
    iterate bound for such a root can pass beyond the cap on its way and
    stop there, and that pair is then missing (a known defect, seen on
    wide-rate kernels and pinned by strict xfails in the tests).
    """
    m = mat_a.shape[0]
    alpha = stiffness_eigenvalues(0.5 * mat_a.diag[0], m, m + 1,
                                  np.arange(1, m + 1))
    profile = np.sort(mat_b.diag / mat_a.diag)
    profile[:m - rank] = 0.0
    beta = profile * alpha
    damped = beta > 0.0
    mats = k.realization(alpha[damped, None, None],
                         np.sqrt(beta)[damped, None, None])
    starts = np.concatenate((1j * np.sqrt(alpha[~damped]),  # the Im > 0 one
                             np.linalg.eigvals(mats).astype(complex).ravel()))
    real = starts.imag == 0.0
    moved = np.concatenate((starts[real], starts[starts.imag > 0.0]))
    n_real = int(np.count_nonzero(real))
    setup = _sweep_setup(mat_a, mat_b, k, rank)
    active, last = np.arange(moved.size), np.full(moved.size, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_SWEEPS):
            # active ascends, so the real points come first
            z, split = moved[active], int(np.searchsorted(active, n_real))
            points = z[:split].real, z[split:]
            d_log = _log_derivative(*points, setup)
            step = np.empty_like(z)  # real points' steps at Im +0
            for part, d, p in zip((slice(split), slice(split, None)),
                                  d_log, points):
                if p.size:
                    step[part] = 1.0 / (d - _deflation(p, active[part], moved,
                                                       n_real))
            d_log = np.concatenate(d_log)
            finite = np.isfinite(d_log)
            # a zero pivot (at a root to the last bit, or by chance) makes
            # p'/p infinite and the step zero; such a point steps off by a
            # few ulps
            off = ~(np.isfinite(step) & finite)
            if off.any():
                step[off] = 8.0 * _EPS * z[off]
            size, scale, prev = np.abs(step), np.abs(z), last[active]
            small, shrunk = size <= ABERTH_STALL * scale, size < prev
            keep = shrunk | ~small  # a stalled root keeps its iterate
            kept = active[keep]
            z -= step
            moved[kept] = z[keep]
            # once a step is shorter than a finite last one the iteration
            # converges, and the error left in z - step is about one step
            # or less (rho / (1 - rho) steps at a linear rate rho <= 1/2);
            # ten steps keep the root beyond the cap up to rho = 10/11.  A
            # step below ABERTH_STALL |z| and 1e-6 of the last one leaves
            # 1e-6 / (1 - 1e-6) steps, about 1e-17 |z|, where it measures
            # the distance to the root: where the Newton step 1 / |p'/p| is
            # at most twice it (an iterate nearby shrinks it by deflation)
            converging = shrunk & np.isfinite(prev)
            beyond = converging & (np.abs(z.imag) > imag_cap + 10.0 * size)
            done = converging & small & (size <= 1e-6 * prev) \
                & finite & (2.0 * size * np.abs(d_log) >= 1.0)
            last[kept] = size[keep]
            active = active[keep & ~(beyond | done
                                     | (size <= 2.0 * _EPS * scale))]
            if not active.size:
                break
    roots = np.concatenate((moved, np.conj(moved[n_real:])))
    cplx = active[active >= n_real]  # still moving at the cap
    cplx = cplx[~(np.abs(moved[cplx].imag) > imag_cap)]
    if cplx.size:
        raise RootFindingError(
            f"fd eigenvalues {listing(moved[cplx])} still move after "
            f"{ABERTH_SWEEPS} Ehrlich-Aberth sweeps", best=roots)
    roots[:n_real] = _certified_real(moved[:n_real].real,
                                     active[active < n_real], setup)
    return roots


def _inertia(x, setup) -> np.ndarray:
    """nu(x), the number of negative pivots of the real symmetric T(x) at
    each float64 x, by one :func:`_pivots` pass in blocks of rows: the Sturm
    count of LAPACK's dstebz (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967)."""
    al, ad, bl, bd, rates, weights, _ = setup
    count, piv, rows = 0, np.ones_like(x), max(8, ROW_BLOCK // max(x.size, 1))
    with np.errstate(all="ignore"):  # a midpoint may round onto a pole
        khat = np.sum(weights[:, None] / np.add.outer(rates, x), axis=0)
        for i in range(0, ad.size, rows):
            diag = ad[i:i + rows] - khat * bd[i:i + rows] + x * x
            off = al[i:i + rows] - khat * bl[i:i + rows]
            piv = _pivots(off * off, diag, piv)
            count += np.count_nonzero(diag < 0.0, axis=0)
    return count


def _certified_real(real, moving, setup) -> np.ndarray:
    """The real roots, each pole gap checked by its inertia count and
    repaired where it fails or holds a root still ``moving`` (indices into
    ``real``), as :func:`nonlinear_eigenvalues_fd` states."""
    *_, rates, _, rank = setup
    edges = np.append(-rates[::-1], 0.0)
    inside = (real > edges[0]) & (real < 0.0) & ~np.isin(real, edges)
    if not inside.all():
        raise RootFindingError(f"real fd eigenvalues {listing(real[~inside])} "
                               f"lie outside the pole gaps of (-b_N, 0)")
    pts = np.concatenate((edges, real))
    order = np.argsort(pts)
    pts, fixed = pts[order], real.copy()
    mids, edge = 0.5 * (pts[:-1] + pts[1:]), np.flatnonzero(order < edges.size)
    nu, stuck = _inertia(mids, setup), np.isin(order, edges.size + moving)
    for lo, hi in zip(edge[:-1], edge[1:]):  # the gap (pts[lo], pts[hi])
        # nu = r just right of pts[lo], then the midpoints', 0 just left of
        # pts[hi]: a step of 0 at the ends and of 1 across each root
        known = np.concatenate(([rank], nu[lo:hi], [0]))
        steps = np.abs(np.diff(known))
        if (steps[0] == steps[-1] == 0 and np.all(steps[1:-1] == 1)
                and not stuck[lo:hi].any()):
            continue
        if hi - lo - 1 != rank:
            raise RootFindingError(
                f"pole gap ({pts[lo]:.12g}, {pts[hi]:.12g}) holds "
                f"{hi - lo - 1} real fd eigenvalues for r = {rank} and fails "
                f"its inertia count")
        # nu falls below k past the last known point with nu >= k
        ks = np.arange(rank, 0, -1)
        j = np.searchsorted(-np.maximum.accumulate(known[::-1])[::-1], -ks,
                            "right") - 1
        xs = np.concatenate((pts[lo:lo + 1], mids[lo:hi], pts[hi:hi + 1]))
        lo_x, hi_x = xs[j], xs[j + 1]
        while True:  # bisection on nu down to adjacent doubles
            mid = 0.5 * (lo_x + hi_x)
            live = np.flatnonzero((lo_x < mid) & (mid < hi_x))
            if not live.size:
                break
            up = _inertia(mid[live], setup) >= ks[live]
            lo_x[live[up]], hi_x[live[~up]] = mid[live[up]], mid[live[~up]]
        fixed[order[lo + 1:hi] - edges.size] = hi_x
    return fixed


@functools.cache
def _start() -> np.ndarray:
    """The read-only start of inverse iteration in :func:`_residuals`, whose
    first m values start a grid of m rows: the stream of ``default_rng(0)``
    draws one normal after another, so they equal
    ``default_rng(0).standard_normal(m)``.  It is drawn once, on first use,
    as importing numpy.random with the module would add about a tenth to a
    CLI start."""
    start = np.random.default_rng(0).standard_normal(MAX_REALIZATION)
    start.flags.writeable = False
    return start


def _residuals(lam, setup):
    """||T(lam) u|| / ||u|| for each lam, with u from two steps of inverse
    iteration on the tridiagonal T(lam) from a fixed random start, the
    first m values of :func:`_start` (a symmetric start would miss the odd
    modes of a symmetric profile), as one Thomas sweep over all lam on the
    pivots of :func:`_pivots` of T(lam) from ``setup``; each lam's column
    is its own (in blocks of two or more; a lone column sums its norms in
    another order) and conj(lam) gives its bits, real lam run in float64."""
    al, ad, bl, bd, rates, weights, _ = setup
    real = not np.iscomplexobj(lam)
    u = np.outer(_start()[:ad.size], np.ones_like(lam))
    with np.errstate(all="ignore"):
        # T(lam) with the grid along the rows and one lam per column; Khat
        # summed in rate order at lam + 0j, for real and complex lam alike
        khat = sum(w / (lam + 0j + b) for w, b in zip(weights, rates))
        khat = khat.real if real else khat

        def diag(out=None):  # built in place
            out = np.multiply(khat, bd, out)
            out = np.subtract(ad, out, out)
            return np.add(out, lam * lam, out)

        off = al[1:] - khat * bl[1:]
        piv = diag()
        _pivots(off * off, piv[1:], piv[0])
        # with a pivot exactly zero (lam an eigenvalue to the last bit),
        # T(lam) is factored again with it raised to eps max |T(lam)|; the
        # other columns meet no zero and keep their pivots
        if not np.all(piv):  # a NaN pivot is not zero
            tiny = _EPS * np.abs(np.concatenate((off, diag(out=piv)))).max(0)
            _pivots(off * off, piv[1:], piv[0], tiny)
        mult = off / piv[:-1]
        rows, tmp = list(u), np.empty_like(u[0])  # views of u's rows
        for _ in range(2):
            u /= np.linalg.norm(u, axis=0)
            for mul, prev, row in zip(mult, rows, rows[1:]):
                np.subtract(row, np.multiply(mul, prev, tmp), row)
            np.divide(rows[-1], piv[-1], rows[-1])
            for o, p, row, nxt in zip(off[::-1], piv[-2::-1], rows[-2::-1],
                                      rows[:0:-1]):
                np.subtract(row, np.multiply(o, nxt, tmp), row)
                np.divide(row, p, row)
        t_u = np.multiply(diag(out=piv), u, piv)  # T u, in the LU's buffers
        t_u[1:] += np.multiply(off, u[:-1], mult)
        t_u[:-1] += np.multiply(off, u[1:], mult)
        return np.linalg.norm(t_u, axis=0) / np.linalg.norm(u, axis=0)


def nonlinear_eigenvalues_fd(mat_a: SymTridiagonal, mat_b: SymTridiagonal,
                             k: ExponentialKernel,
                             imag_cap: float = 50.0
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of T(lam) = lam^2 + A - Khat(lam) A_b from the
    memory-variable realization, as (lam, residual) sorted by (re, im).

    ``mat_a`` and ``mat_b`` are the :class:`SymTridiagonal` stencils of
    :func:`discretize_1d`; a band of the wrong length or with a non-finite
    entry raises ValueError.  The realization uses A_b = F^T F with F of full
    row rank r, the number of eigenvalues of A_b above m * eps ||A_b||_inf
    by a Sturm count on its bands (:func:`_damping_rank`), so no eigenvalue
    (size at most (N+2) m <= MAX_REALIZATION) sits at a pole.  Its
    D = 2 m + N r eigenvalues are the roots of det T(lam) prod_j
    (lam + b_j)^r by Ehrlich-Aberth on the bands' :func:`_pivots` alone
    (:func:`_aberth_roots`), refined fully only within imag_cap, where a
    complex root still moving after ABERTH_SWEEPS sweeps raises
    RootFindingError.  With a finite cap a pair within it can be missing,
    the known defect :func:`_aberth_roots` states; a larger cap shows it.

    Let nu(x) count the negative pivots of the real symmetric T(x)
    (:func:`_inertia`).  T(x) is positive definite for x <= -b_N (Khat < 0)
    and, under the hypothesis 1 > b_max sum_j a_j, for x >= 0 (T >= A -
    Khat(0) A_b >= (1 - b_max sum_j a_j) A), so every real root lies in a
    pole gap (-b_(j+1), -b_j), b_0 = 0, across which nu runs from r
    (Khat -> +inf) to 0, changing only at roots.  A gap passes when, at the
    midpoints of the sorted poles, real roots and 0, nu = r in its first
    interval and 0 in its last and changes by +-1 across each root; this
    cannot see a real root that is not simple, nor three crossings between
    two test points.  A gap that fails, or holds a root still moving at the
    cap, takes its crossings by bisection on nu within those intervals, down
    to adjacent doubles, if it holds r real roots; otherwise, or for a real
    root outside (-b_N, 0), RootFindingError is raised.

    Real eigenvalues are exactly real and the others come in exact
    conjugate pairs.  For each lam with |Im| <= imag_cap, the residual
    ||T(lam) u|| / ||u|| of :func:`_residuals` must stay below 1e-6
    ||A||_inf, or RootFindingError is raised, with all D values in its
    ``best`` (those beyond the cap may be unrefined iterates); a NaN
    eigenvalue fails too, but a pivot that is exactly zero is raised to
    eps max |T(lam)| first, as LAPACK's inverse iteration does.  Every
    printed row is swept, a real row in float64 where D exceeds one block,
    so a conjugate pair's residuals are equal by T(conj lam) = conj T(lam),
    the real start and numpy's conjugation-symmetric complex arithmetic.
    """
    if not isinstance(mat_a, SymTridiagonal):
        raise ValueError("mat_a must be a SymTridiagonal")
    m = mat_a.shape[0]
    for name, mat in (("mat_a", mat_a), ("mat_b", mat_b)):
        if not (isinstance(mat, SymTridiagonal) and np.shape(mat.diag) == (m,)
                and np.shape(mat.off) == (m - 1,)
                and np.isfinite(np.concatenate((mat.diag, mat.off))).all()):
            raise ValueError(f"{name} must be a SymTridiagonal of {m} rows "
                             f"with finite bands")
    if (k.n_terms + 2) * m > MAX_REALIZATION:
        raise ValueError(
            f"realization size {(k.n_terms + 2) * m} exceeds "
            f"MAX_REALIZATION = {MAX_REALIZATION}"
        )
    setup = _sweep_setup(mat_a, mat_b, k, _damping_rank(mat_b))
    vals = _aberth_roots(mat_a, mat_b, k, setup[-1], imag_cap)
    lam = vals[~(np.abs(vals.imag) > imag_cap)]  # a NaN stays, and fails
    # near-equal blocks of ROW_BLOCK // m complex or twice as many real
    # columns bound the sweep's arrays; where all D roots fit one block they
    # take one complex call, else the real lam take float64 blocks of their
    # own, so a real row's bits do not depend on imag_cap
    cols = max(1, ROW_BLOCK // m)
    real = (lam.imag == 0.0) & (vals.size > cols)
    res = np.empty(lam.size)
    for kind, part in ((real, lam[real].real), (~real, lam[~real])):
        if part.size:
            res[kind] = np.concatenate([
                _residuals(block, setup) for block in np.array_split(
                    part, -(-part.itemsize * part.size // (16 * cols)))])
    bound = 1e-6 * mat_a.norm_inf()
    if not np.all(res <= bound):
        raise RootFindingError(
            f"fd eigenvalues {listing(lam[~(res <= bound)])} have "
            f"residuals above {bound:g}", best=vals)
    order = np.lexsort((lam.imag, lam.real))
    return lam[order], res[order]
