"""Seeded recipes for 1D finite-difference problems, and the dense oracle.

Each recipe draws (kernel, A, A_b) from a numpy Generator: graded profiles
like the benchmark's FD calls, wide-rate kernels, and nearly constant
profiles whose roots cluster next to the poles.  The draws are part of the
tests' data: pinned draws are named by their seed and index, so a recipe
must keep every draw bit-identical.  :func:`dense_realization_eigvals` is
the oracle the FD route is checked against.
"""

import numpy as np

from memspec import ExponentialKernel, discretize_1d, pencil


def dense_realization_eigvals(mat_a, mat_b, k):
    """Oracle: one dense eigvals call on the realization with A_b = F^T F
    from the eigendecomposition of A_b."""
    m = mat_a.shape[0]
    damp, vecs = np.linalg.eigh(mat_b.toarray())
    keep = damp > m * np.finfo(float).eps * damp.max()
    f = np.sqrt(damp[keep])[:, None] * vecs[:, keep].T
    return np.linalg.eigvals(k.realization(mat_a.toarray(), f)).astype(complex)


def graded_config(rng, max_size, min_size=0):
    """A graded 1D problem like the benchmark's FD calls: N = 1-3 terms,
    rates in [0.2, 5], a piecewise linear profile of 2-5 samples, one in
    six vanishing between two adjacent samples (so r < n), realization
    size (N+2) n from min_size (or n = 3) up to max_size."""
    n_terms = int(rng.integers(1, 4))
    rates = np.sort(rng.uniform(0.2, 1.3 if n_terms == 1 else 5.0, n_terms))
    amps = rng.uniform(0.2, 1.0, n_terms)
    k = ExponentialKernel(tuple(amps), tuple(rates))
    b_max = rng.uniform(0.3, 0.9) / amps.sum()
    samples = rng.uniform(b_max * rng.uniform(0.3, 0.7), b_max,
                          int(rng.integers(2, 6)))
    if rng.uniform() < 1.0 / 6.0:
        start = rng.integers(samples.size - 1)
        samples[start:start + 2] = 0.0
    n = int(rng.integers(max(3, -(-min_size // (n_terms + 2))),
                         max_size // (n_terms + 2) + 1))
    a = rng.uniform(0.5, 2.0)
    nodes = np.arange(1, n + 1) / (n + 1)
    profile = np.interp(nodes, np.linspace(0.0, 1.0, samples.size), samples)
    return k, *discretize_1d(a, profile, n, 1.2 * np.sqrt(a))


def wide_rate_config(rng, min_size, max_size=pencil.MAX_REALIZATION,
                     max_terms=10, decades=(2.0, 4.0)):
    """A graded 1D problem with a wide-rate kernel: N = 1-max_terms terms
    whose rates span ``decades`` from a lowest rate in [0.1, 1], the profile
    of :func:`graded_config` with no vanishing part, and (N+2) n from
    min_size (or n = 3) to max_size, n = lo (hi / lo)^(u^4) for a uniform
    u, so that most configs are small (the dense oracle costs D^3)."""
    n_terms = int(rng.integers(1, max_terms + 1))
    spread = np.sort(rng.uniform(0.0, 1.0, n_terms))
    spread = (spread - spread[0]) / (np.ptp(spread) or 1.0)
    rates = 10.0 ** (rng.uniform(-1.0, 0.0) + rng.uniform(*decades) * spread)
    amps = rng.uniform(0.2, 1.0, n_terms)
    k = ExponentialKernel(tuple(amps), tuple(rates))
    b_max = rng.uniform(0.3, 0.9) / amps.sum()
    samples = rng.uniform(b_max * rng.uniform(0.3, 0.7), b_max,
                          int(rng.integers(2, 6)))
    lo = max(3, -(-min_size // (n_terms + 2)))
    hi = max_size // (n_terms + 2)
    n = int(lo * (hi / lo) ** (rng.uniform() ** 4))
    a = rng.uniform(0.5, 2.0)
    nodes = np.arange(1, n + 1) / (n + 1)
    profile = np.interp(nodes, np.linspace(0.0, 1.0, samples.size), samples)
    return k, *discretize_1d(a, profile, n, 1.2 * np.sqrt(a))


def near_constant_config(rng):
    """A nearly constant linear profile b (1 - eps x) with eps in
    [1e-9, 1e-3]: N = 1-3 terms, rates in [0.2, 5] (up to 1.3 at N = 1), and
    n from 3 to (2000 // (N + 2)) at n = 3 (hi / 3)^(u^2), so its roots
    cluster tightly next to the poles."""
    n_terms = int(rng.integers(1, 4))
    rates = np.sort(rng.uniform(0.2, 1.3 if n_terms == 1 else 5.0, n_terms))
    amps = rng.uniform(0.2, 1.0, n_terms)
    b = rng.uniform(0.3, 0.9) / amps.sum()
    eps = 10.0 ** rng.uniform(-9.0, -3.0)
    n = int(3 * ((2000 // (n_terms + 2)) / 3) ** (rng.uniform() ** 2))
    a = rng.uniform(0.5, 2.0)
    x = np.arange(1, n + 1) / (n + 1)
    k = ExponentialKernel(tuple(amps), tuple(rates))
    return k, *discretize_1d(a, b * (1.0 - eps * x), n, 1.2 * np.sqrt(a))


def span_config(rng):
    """A graded ``discretize`` config as a dict for ``--config``: N = 1-12
    rates over 0-12 decades up from 10^lo, lo in [-2, 2] (repeats dropped,
    so N counts the distinct rates), amplitudes in [1e-3, 1], 2-5 profile
    samples in [0.3 b_max, b_max] with b_max sum_j a_j in [0.05, 0.95], 3 to
    min(80, 2000 // (N + 2)) grid points, a in [0.1, 10] and a length in
    [10^-0.5, 10^0.5], all drawn in this order."""
    n_terms = int(rng.integers(1, 13))
    span, lo = rng.uniform(0.0, 12.0), rng.uniform(-2.0, 2.0)
    rates = np.unique(10.0 ** rng.uniform(lo, lo + span, n_terms))
    amps = 10.0 ** rng.uniform(-3.0, 0.0, rates.size)
    b_max = rng.uniform(0.05, 0.95) / amps.sum()
    samples = rng.uniform(0.3 * b_max, b_max, int(rng.integers(2, 6)))
    grid_points = int(rng.integers(3, min(80, 2000 // (rates.size + 2)) + 1))
    a, length = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-0.5, 0.5)
    return {"coefficient_a": float(a),
            "kernel": {"a": amps.tolist(), "b": rates.tolist()},
            "damping": {"kind": "profile_1d", "samples": samples.tolist()},
            "domain": {"kind": "interval_fd", "length": float(length),
                       "grid_points": grid_points}}


def nth_draw(recipe, seed, index, *args):
    """Draw number ``index`` (from 0) of ``recipe(rng, *args)`` on
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        config = recipe(rng, *args)
    return config
