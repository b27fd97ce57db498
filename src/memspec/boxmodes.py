"""Dirichlet Laplacian modes on a box, supplying stiffness values alpha.

The stiffness operator is -a * Laplacian on a box with homogeneous Dirichlet
conditions; its eigenvalues are a * pi^2 * sum_j m_j^2 / l_j^2.  The factor a
is included even though it is sometimes dropped in the literature, because the
downstream enclosure constants only reproduce with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Most index tuples enumerate_modes walks; a larger enumeration is refused.
MAX_INDEX_TUPLES = 10 ** 6


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (0, l_1) x ... x (0, l_n) with 1 <= n <= 3."""

    lengths: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= len(self.lengths) <= 3:
            raise ValueError(f"dimension {len(self.lengths)} not in 1..3")
        for length in self.lengths:
            if not (length > 0.0) or not math.isfinite(length):
                raise ValueError(f"side length {length} must be positive")

    @property
    def dim(self) -> int:
        return len(self.lengths)


def mode_alpha(a: float, box: BoxDomain, indices):
    """Eigenvalues a * pi^2 * sum_j m_j^2 / l_j^2 of the modes whose index
    tuples run along the last axis of ``indices``; the terms are added in
    axis order."""
    indices = np.asarray(indices)
    if indices.shape[-1:] != (box.dim,):
        raise ValueError(f"expected {box.dim} indices, got shape "
                         f"{indices.shape}")
    if np.any(indices < 1):
        raise ValueError(f"mode indices must be >= 1, got {indices}")
    s = 0.0
    for j, l in enumerate(box.lengths):
        m = indices[..., j]
        s = s + m * m / (l * l)
    return a * math.pi ** 2 * s


def min_stiffness(a: float, box: BoxDomain) -> float:
    """Smallest stiffness eigenvalue (the ground mode (1, ..., 1))."""
    return float(mode_alpha(a, box, (1,) * box.dim))


def enumerate_modes(a: float, box: BoxDomain, alpha_cap: float) -> np.ndarray:
    """Index tuples of all modes with alpha <= alpha_cap, one per row of an
    (M, dim) integer array, sorted by (alpha, indices).

    The index bound m_j <= l_j * sqrt(alpha_cap / (a pi^2)) makes the
    enumeration complete; multiplicities are kept as distinct rows.  A cap
    below the ground mode gives no rows; bounds spanning more than
    MAX_INDEX_TUPLES tuples raise ValueError before the grid is built.
    """
    base = math.sqrt(max(alpha_cap, 0.0) / (a * math.pi ** 2))
    bounds = [int(min(l * base, MAX_INDEX_TUPLES)) + 1 for l in box.lengths]
    if math.prod(bounds) > MAX_INDEX_TUPLES:
        raise ValueError(
            f"the modes below {alpha_cap:g} span at least "
            f"{math.prod(bounds):.3g} index tuples, more than "
            f"{MAX_INDEX_TUPLES:.0e}")
    grid = np.indices(bounds).reshape(box.dim, -1).T + 1
    alpha = mode_alpha(a, box, grid)
    kept = alpha <= alpha_cap * (1.0 + 1e-12)
    grid, alpha = grid[kept], alpha[kept]
    return grid[np.lexsort((*grid.T[::-1], alpha))]
