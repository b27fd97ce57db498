"""Scalar spectral functions of the memory-damped wave symbol.

For a kernel with Laplace transform Khat and a damping level bhat, the scalar
machinery revolves around the factor 1 - bhat * Khat(lam), whose zeros, the
eigenvalues of the kernel's N-square memory block, obstruct Fredholmness of
the symbol and sweep out the essential spectrum, and the per-mode rational
symbol lam^2 + alpha - beta * Khat(lam), whose roots, one in each pole gap
found in its offset from the pole and a pair from their sum and product, are
the eigenvalues of the kernel's (N+2)-square realization.  Each gap root
starts from the branch zero at its mode's ratio beta / alpha, the limit it
approaches as alpha grows, so the modes of one ratio share one memory
block.  The realization and the cleared polynomial of degree N + 2, an array
of ascending coefficients, are kept as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, RootFindingError, listing
from .kernel import ExponentialKernel

#: Relative residual |g| / scale above which a mode eigenvalue is refused.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DampingBound:
    """Range [b_min, b_max] of the damping profile."""

    b_min: float
    b_max: float

    def __post_init__(self):
        if not 0.0 <= self.b_min <= self.b_max:
            raise ValueError(
                f"need 0 <= b_min <= b_max, got [{self.b_min}, {self.b_max}]"
            )

    @property
    def is_constant(self) -> bool:
        return self.b_min == self.b_max


@dataclass(frozen=True)
class ModeCoefficients:
    """Stiffness value alpha and damping value beta of a mode, or arrays."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not np.all(np.asarray(self.alpha) > 0.0):
            raise ValueError(f"alpha = {self.alpha} must be positive")
        if np.any(np.asarray(self.beta) < 0.0):
            raise ValueError(f"beta = {self.beta} must be nonnegative")


#: Offsets, in units of the spacing of doubles, of the points tested around
#: the Newton step before the bisection closes the bracket.
ZERO_LADDER = np.array([-1024.0, -256.0, -64.0, -16.0, -8.0, -4.0, -2.0,
                        -1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0])

#: Most ladder points tested, or form terms summed, at once; the stacked
#: terms of a long sweep's slices hold at most 6 MB at N = 12.
LADDER_CHUNK = 1 << 16


def _secular_test(weights, shifts, d):
    """The bisection's test sum_j weights / (d + shifts) > 1, row by row.

    ``d`` holds one offset per row of ``weights`` and ``shifts``, or a stack
    of such vectors.  Returns the test and the quotients.  Each row is
    summed over its own contiguous terms, so a row gives the same bits
    whatever the stack around it.
    """
    terms = d[..., None] + shifts
    np.divide(weights, terms, out=terms)
    return np.sum(terms, axis=-1) > 1.0, terms


def _middle(lo, hi):
    """The middle double of each bracket +0.0 <= lo <= hi, the integer
    midpoint of the bit patterns: at most 64 halvings close a bracket."""
    bits = lo.view(np.int64)
    return (bits + (hi.view(np.int64) - bits) // 2).view(float)


def _narrow(lo, hi, d, below):
    """Move lo up to the points d that test below the zero and hi down to
    the others, counting only points strictly inside (lo, hi); ``d`` is a
    stack of vectors of one point per bracket."""
    inside = (lo < d) & (d < hi)
    np.maximum(lo, np.max(d, axis=0, initial=-np.inf,
                          where=inside & below), out=lo)
    np.minimum(hi, np.min(d, axis=0, initial=np.inf,
                          where=inside & ~below), out=hi)


def _newton_step(weights, shifts, lo, hi, d):
    """Test the points d, narrow lo and hi, and return the Newton step from
    d on d (sum_j weights / (d + shifts) - 1), exact for one pole term."""
    below, terms = _secular_test(weights, shifts, d)
    _narrow(lo, hi, d[None], below[None])
    total = np.sum(terms, axis=1)
    terms /= d[:, None] + shifts
    slope = d * np.sum(terms, axis=1)
    return d * slope / (slope + 1.0 - total)


def _block_offsets(rates, scaled):
    """Offsets lam + b_j of the eigenvalues lam of the memory blocks
    root root^T - diag(b), root = sqrt(scaled[i]), gap j in column j, from
    one batched ``np.linalg.eigvalsh``: its eigenvalues ascend, the gaps'
    descend."""
    root = np.sqrt(scaled)
    return np.linalg.eigvalsh(root[:, :, None] * root[:, None, :]
                              - np.diag(rates))[:, ::-1] + rates


def fredholm_factor_zeros(k: ExponentialKernel, bhat) -> list:
    """The N real zeros of 1 - bhat * Khat, one per pole gap, ascending.

    ``bhat`` is one damping level or a 1-D array of levels; an array gives
    one list of zeros per level, and a level 0 gives an empty list.  By the
    matrix determinant lemma, with c_j = sqrt(a_j b_j),
    det(lam + diag(b) - bhat c c^T) = prod(lam + b_j) (1 - bhat * Khat), so
    the zeros are the eigenvalues of the memory block M = bhat c c^T
    - diag(b), and Cauchy interlacing puts one in each gap (-b_j, -b_{j-1}),
    b_0 := 0, the first below 0 where the dissipativity margin is positive
    (Golub, SIAM Rev. 15, 1973).  Each zero is sought in the offset
    d = lam + b_j, where the pole term a_j b_j / d carries no cancellation,
    as the adjacent pair of doubles where the test sum(weights / (d +
    shifts)) > 1 changes.  That test is monotone in d under rounding (each
    quotient is monotone in d, and rounded addition is monotone in each
    argument), so the pair is unique and every sequence of test points
    strictly inside the bracket ends on it: the zeros are the bits of plain
    bisection.  The points are the eigenvalues of the stack of M
    (:func:`_block_offsets`, which starts the mode roots too), clipped into
    the brackets; one Newton step on d (sum(weights / (d + shifts)) - 1),
    kept where strictly inside the narrowed bracket, since an error of about
    eps * b_N puts many eigenvalues beyond the ladder and this form is exact
    for the pole term alone; the doubles ZERO_LADDER apart around the step,
    in stacked tests of LADDER_CHUNK points; and bisection on middle doubles.
    The zero next to 0 is conditioned like the inverse of the margin
    1 - bhat * sum(a_j), so its relative error grows as the margin closes.
    """
    levels = np.asarray(bhat, dtype=float)
    if not np.all(levels >= 0.0):
        raise ValueError(f"bhat = {bhat} must be nonnegative")
    top = levels.max(initial=0.0)
    if k.dissipativity_margin(top) <= 0.0:
        raise HypothesisError(
            f"dissipativity margin {k.dissipativity_margin(top)} <= 0 at "
            f"bhat = {top}"
        )
    flat, rates, n = levels.reshape(-1), np.asarray(k.rates), k.n_terms
    # bracket i is the gap i % n of the level flat[i // n], empty when the
    # level is 0; its rows: lam + b_j = d + shifts[i, j]
    scaled = flat[:, None] * np.asarray(k.amplitudes) * rates
    weights = np.repeat(scaled, n, axis=0)
    shifts = np.tile(rates[None, :] - rates[:, None], (flat.size, 1))
    width = np.outer(flat > 0.0, np.diff(rates, prepend=0.0)).ravel()
    lo, hi = np.zeros(flat.size * n), width.copy()
    d = np.clip(_block_offsets(rates, scaled).ravel(), lo, hi)
    # settled brackets' pole rows may divide by zero; such steps are dropped
    with np.errstate(all="ignore"):
        step = _newton_step(weights, shifts, lo, hi, d)
        d = np.where((lo < step) & (step < hi), step, d)
        rows = LADDER_CHUNK // ZERO_LADDER.size
        for start in range(0, d.size, rows):
            part = slice(start, start + rows)
            ladder = d[part] + ZERO_LADDER[:, None] * np.spacing(d[part])
            _narrow(lo[part], hi[part], ladder, _secular_test(
                weights[part], shifts[part], ladder)[0])
        while True:
            mid = _middle(lo, hi)
            if not ((lo < mid) & (mid < hi)).any():
                break
            _narrow(lo, hi, mid[None],
                    _secular_test(weights, shifts, mid)[0][None])
    zeros = ((0.5 * (lo + hi)).reshape(-1, n) - rates)[:, ::-1].tolist()
    zeros = [row if level > 0.0 else [] for level, row in zip(flat, zeros)]
    return zeros if levels.ndim else zeros[0]


def rational_symbol(k: ExponentialKernel, m: ModeCoefficients, lam):
    """Partial-fraction mode symbol lam^2 + alpha - beta * Khat(lam),
    elementwise over arrays ``lam`` and ``m``."""
    if not np.any(m.beta):
        return lam * lam + m.alpha
    return lam * lam + m.alpha - m.beta * k.laplace(lam)


def cleared_mode_polynomial(k: ExponentialKernel, m: ModeCoefficients):
    """Degree N+2 polynomial (lam^2 + alpha) prod(lam+b_j) - beta * sum-term,
    where sum-term = sum_j a_j b_j prod_{i != j}(lam + b_i).

    Coefficients are assembled exactly by products, never by sampling.  The
    full product and the N leave-one-out products grow together, one rate
    at a time, as the rows of one (N+1, N+1) array (row j skips rate j, row
    N takes every rate), and the sum-term is one matrix product of the
    weights a_j b_j with the leave-one-out rows.  Every product coefficient
    is a sum of products of positive rates, so none carries cancellation.
    The mode solver reads only its lam^(N+1) and constant coefficients, in
    closed form; it is the independent oracle for the characteristic
    polynomial of the realization.  One mode gives its N+3 ascending
    coefficients as a 1-D array, evaluated by ``np.polyval(row[::-1], lam)``;
    ``m`` holding 1-D arrays gives all modes as one (M, N+3) array, one row
    per mode, from the same products.
    """
    rates = np.asarray(k.rates)
    alpha = np.asarray(m.alpha, dtype=float)[..., None]
    beta = np.asarray(m.beta, dtype=float)[..., None]
    prods = np.zeros((rates.size + 1, rates.size + 1))
    prods[:, 0] = 1.0
    for j, b in enumerate(rates):
        grown = b * prods
        grown[:, 1:] += prods[:, :-1]
        grown[j] = prods[j]
        prods = grown
    full = prods[-1]
    sum_term = (np.asarray(k.amplitudes) * rates) @ prods[:-1]
    return (alpha * np.pad(full, (0, 2)) + np.pad(full, (2, 0))
            - beta * np.pad(sum_term, (0, 2)))


def _pole_split(k: ExponentialKernel, z: np.ndarray):
    """Weights a_j b_j, index j of the pole -b_j nearest each point of a 1-D z,
    that of Re z, offsets z + b_j and the (N, z.size) rows 1 / (z + b_i),
    zeroed at -b_j."""
    rates = np.asarray(k.rates)
    near = np.argmin(np.abs(np.real(z)[:, None] + rates), axis=-1)
    inv = np.add.outer(rates, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, inv, out=inv)
    inv[near, np.arange(z.size)] = 0.0
    return np.asarray(k.amplitudes) * rates, near, z + rates[near], inv


def _near_pole_form(k: ExponentialKernel, alpha, beta, z: np.ndarray):
    """g = f (z + b_j) for the mode symbol f and the pole -b_j nearest z.

    Returns g, the residual scale of g and, at the real points of a 1-D
    array z (nan elsewhere), the Jordan ratio of :func:`jordan_ratio`, from
    one pass over the rows of :func:`_pole_split`.  The scale sums the terms
    of g in magnitude, with z + b_j replaced by |z| + b_j, since rounding in
    z itself can meet the bound.  Each sum is Python's sum over the rows, in
    blocks of LADDER_CHUNK terms, which adds them one by one from 0 in rate
    order (np.sum could sum pairwise), so each point's values depend on it
    alone; at conj(z) the form gives conj(g) and the same scale.
    """
    weights, near, offset, inv = _pole_split(k, z)
    reach = np.abs(z) + np.asarray(k.rates)[near]
    rest, rest_size = np.empty(z.size, complex), np.empty(z.size)
    curve = np.empty(z.size)  # -Khat' less its near pole's term, at real z
    w, cols = weights[:, None], LADDER_CHUNK // weights.size
    for start in range(0, z.size, cols):
        part = slice(start, start + cols)
        rest[part] = sum(w * inv[:, part])
        rest_size[part] = sum(w * np.abs(inv[:, part]))
        flat = inv[:, part].real
        curve[part] = sum(w * (flat * flat))
    value = (z * z + alpha) * offset - beta * (weights[near] + offset * rest)
    scale = ((np.abs(z) ** 2 + alpha) * reach
             + beta * (weights[near] + reach * rest_size))
    sq = offset.real ** 2
    slope = beta * (weights[near] + sq * curve)
    return value, scale, np.divide(
        np.abs(2.0 * z.real * sq + slope), 2.0 * np.abs(z.real) * sq + slope,
        out=np.full(z.size, np.nan), where=z.imag == 0.0)


def root_counts(k: ExponentialKernel, betas) -> np.ndarray:
    """Roots per mode of :func:`mode_spectra`: N + 2 where beta > 0, and 2
    where beta = 0, whose symbol lam^2 + alpha has no memory term."""
    return np.where(np.asarray(betas) > 0.0, k.n_terms + 2, 2)


def _gap_step(terms, shifts, alpha, beta, pole, own, right, d):
    """G = f d at offsets d = lam + b_j from the gap's left pole, the step
    to the nearer root of the osculating parabola of H = G (right - d), free
    of both poles (right = b_j - b_(j-1), inf next to 0), or inf where H' <=
    0 or the parabola has no real root, and the rounding noise of G, 4 eps
    times the sum of its terms in magnitude; own = a_j b_j; ``terms`` (0 at
    j) are summed in rate order."""
    lam, inv = d - pole, d + shifts
    np.divide(1.0, inv, out=inv)
    part = terms * inv
    rest = sum(part)
    part *= inv
    rest_1 = sum(part)  # -rest'
    part *= inv
    rest_2 = sum(part)  # rest'' / 2
    del inv, part  # before the row arrays below, at the solve's peak
    quad = lam * lam + alpha
    value = quad * d - beta * (own + d * rest)
    slope = quad + 2.0 * lam * d - beta * (rest - d * rest_1)
    curve = 4.0 * lam + 2.0 * d + 2.0 * beta * (rest_1 - d * rest_2)
    # H / H' = value / h1 and H'' / H' = h2 / h1
    t = 1.0 / (d - right)
    h1, h2 = slope + value * t, curve + 2.0 * slope * t
    newton = value / h1
    disc = 1.0 - 2.0 * newton * h2 / h1
    step = np.where((h1 > 0.0) & (disc >= 0.0),
                    2.0 * newton / (1.0 + np.sqrt(disc)), np.inf)
    noise = 4.0 * np.finfo(float).eps * (quad * d + beta * (
        own + d * np.abs(rest)))
    return value, step, noise


def mode_spectra(k: ExponentialKernel, alphas, betas) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of the modes (alphas[i], betas[i]): one flat array, mode
    after mode and sorted by (re, im) within each, the count per mode, each
    root's residual ratio |g| / scale on :func:`_near_pole_form`, and each
    real root's Jordan ratio from the same pass (:func:`jordan_ratio`, nan
    at the other roots).

    At beta = 0 the roots are -i sqrt(alpha), i sqrt(alpha).  Otherwise f
    runs from -inf to +inf across each pole gap (-b_j, -b_(j-1)), b_0 = 0,
    and has no other real root: a mode has a root in each gap, and a pair.
    The gap root is sought in its offset d_j = lam + b_j, on G (w_j - d_j),
    G = f d_j, free of both poles (w_j = b_j - b_(j-1), :func:`_gap_step`),
    by Ostrowski's square-root steps (the nearer root of the osculating
    parabola, cubically convergent), in a bracket narrowed by the sign of
    G.  A step that leaves the bracket, or has none, gives way to the
    bracket's middle double or, while no point has tested below the root, to
    the secant through G(0) = -beta a_j b_j, at most half the bracket, since
    that middle would be about 1e-154 of it.  The search stops after a step
    inside the bracket of at most 1e-6 d_j, which is applied: the steps
    converge cubically, so the error it leaves is below an ulp.  It stops
    too where a step is at most 2 ulps of d_j, G is within its rounding
    noise or the bracket closes.

    Gap j starts at the j-th branch zero z_j at level beta / alpha, from
    one memory block per distinct ratio (see :func:`fredholm_factor_zeros`).
    Since f = alpha (1 - (beta / alpha) Khat) + lam^2, f(z_j) = z_j^2 > 0
    and the root lies left of z_j, the closer the larger alpha.  The root is
    the branch zero at level beta / (alpha + lam^2), and a zero's offset is
    about proportional to its level (exactly so for the pole term alone),
    so the start is z_j's offset times alpha / (alpha + z_j^2), which moves
    it for alpha below about b_N^2.  A start within eps max(1, b_N) of a
    gap end is replaced by the pole term's root, at most mid-gap.

    The pair is the roots of mu^2 - s mu + p by the cancellation-free
    formula, with s = -sum_j d_j and p = (alpha - beta sum_j a_j) prod_j b_j
    / (b_j - d_j) from the cleared polynomial's lam^(N+1) and constant
    coefficients.  A root near 0 errs by about eps b_1, like the inverse of
    the margin.  RootFindingError refuses a damped mode's root with |g| /
    scale above RESIDUAL_TOL.
    """
    rates, weights = np.asarray(k.rates), np.multiply(k.amplitudes, k.rates)
    n = rates.size
    alphas, betas = (np.asarray(v, float).ravel() for v in (alphas, betas))
    counts, damped = root_counts(k, betas), betas > 0.0
    out = np.empty((alphas.size, n + 2), dtype=complex)
    out[:, :2] = np.sqrt(alphas)[:, None] * [-1j, 1j]  # real parts +0.0
    alpha, beta, m = alphas[damped], betas[damped], np.count_nonzero(damped)
    ratios, which = np.unique(beta / alpha, return_inverse=True)
    start = _block_offsets(rates, ratios[:, None] * weights)[which].T
    start *= alpha / (alpha + (start - rates[:, None]) ** 2)
    width = np.diff(rates, prepend=0.0)[:, None]
    guess = beta * weights[:, None] / (rates[:, None] ** 2 + alpha)
    level = np.finfo(float).eps * max(1.0, rates[-1])
    d = np.where((level < start) & (start < width - level), start,
                 np.minimum(guess, 0.5 * width))  # at most mid-gap
    # column j * m + i is gap j of mode i; its rows: offset d, bracket lo
    # and hi, alpha, beta, pole b_j, own a_j b_j, right, the column's index,
    # then the N terms (term j has weight 0) and the N shifts b_i - b_j
    state = np.empty((9 + 2 * n, n, m))
    state[0], state[3], state[4] = d, alpha, beta
    state[8] = np.arange(n * m).reshape(n, m)
    state[[1, 2, 5, 6, 7]] = np.array((
        np.zeros(n), width[:, 0], rates, weights,
        np.append(np.inf, width[1:])))[:, :, None]
    state[9:] = np.vstack((weights[:, None] * (1.0 - np.eye(n)),
                           rates[:, None] - rates))[:, :, None]
    state, offsets = state.reshape(9 + 2 * n, -1), np.empty((n, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        while state.shape[1]:
            d, lo, hi, a, b, pole, own, right, index = state[:9]
            value, step, noise = _gap_step(state[9:9 + n], state[9 + n:], a,
                                           b, pole, own, right, d)
            test, below = (lo < d) & (d < hi), value < 0.0
            np.copyto(lo, d, where=test & below)
            np.copyto(hi, d, where=test & ~below)
            new = d - step
            inside, ahead = (lo < new) & (new < hi), new
            if not inside.all():
                # lo = 0: every test so far was >= 0, the last at d = hi
                secant = np.minimum(d * b * own / (value + b * own), 0.5 * hi)
                ahead = np.where(inside, new,
                                 np.where(lo > 0.0, _middle(lo, hi), secant))
            # a step inside the bracket of at most 1e-6 d is the last
            go = ((np.abs(step) > np.where(inside, 1e-6 * d,
                                           2.0 * np.spacing(d)))
                  & (np.abs(value) > noise) & (lo < ahead) & (ahead < hi))
            offsets.flat[index[~go].astype(int)] = np.where(inside, new,
                                                            d)[~go]
            d[...] = ahead
            state = state[:, go]
    half, lam = -0.5 * sum(offsets), offsets[0] - rates[0]
    product = alpha - beta * k.amplitude_sum
    # f(lam_1) = 0 gives product / -lam_1 = lam_1 + beta sum_i a_i / (lam_1
    # + b_i), free of the product's cancellation where lam_1^2 is below it
    inner = sum(amp / (offsets[0] + shift)
                for amp, shift in zip(k.amplitudes, rates - rates[0]))
    product = rates[0] * np.where(lam * lam < product, lam + beta * inner,
                                  product / -lam)
    for rate, offset in zip(rates[1:], offsets[1:]):
        product = product * (rate / (rate - offset))
    disc = half * half - product
    root = np.sqrt(np.abs(disc))  # half < 0: |half - root| is the larger
    pair = np.where(disc >= 0.0, [half - root, product / (half - root)],
                    [half + 1j * root, half - 1j * root])
    z = np.column_stack((offsets.T - rates, pair.T))
    out[damped] = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=1),
                                     axis=1)
    z = out[np.arange(n + 2) < counts[:, None]]
    beta = np.repeat(betas, counts)
    g, scale, jordan = _near_pole_form(k, np.repeat(alphas, counts), beta, z)
    residual = np.abs(g) / scale
    bad = (beta > 0.0) & ~(residual <= RESIDUAL_TOL)
    if bad.any():
        raise RootFindingError("residual guarantee failed for mode "
                               f"eigenvalues {listing(z[bad])}", best=z)
    return z, counts, residual, jordan


def jordan_condition(k: ExponentialKernel, bhat: float, lam0):
    """Non-degeneracy value (2/lam0)(bhat*Khat - 1) - bhat*Khat' at real
    eigenvalues lam0 (a number or an array); nonzero means the Jordan chain
    has length one.

    Only the constant-damping specialization is evaluated here.
    """
    if np.any(lam0 == 0.0):
        raise ValueError("lam0 = 0 is excluded (the formula divides by lam0)")
    return ((2.0 / lam0) * (bhat * k.laplace(lam0).real - 1.0)
            - bhat * k.laplace_deriv(lam0).real)


def jordan_ratio(k: ExponentialKernel, beta, lam0):
    """|f'(lam0)| / (2 |lam0| + beta |Khat'(lam0)|) for the mode symbol
    f = lam^2 + alpha - beta Khat at a 1-D array of real lam0, free of the
    unit of time; at a root f' / alpha is :func:`jordan_condition`.  Both
    terms are scaled by (lam0 + b_j)^2 on :func:`_pole_split`.  The mode
    solve returns this ratio from its residual pass; this is its oracle."""
    weights, near, offset, inv = _pole_split(k, lam0)
    sq = offset * offset  # beta |Khat'| sq is a sum of positive terms
    slope = beta * (weights[near] + sq * (weights @ (inv * inv)))
    return np.abs(2.0 * lam0 * sq + slope) / (2.0 * np.abs(lam0) * sq + slope)
