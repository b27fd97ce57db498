"""Exponential-sum relaxation kernels and their Laplace transforms.

The kernel K(t) = sum_j a_j b_j exp(-b_j t) with a_j > 0 and strictly
increasing decay rates 0 < b_1 < ... < b_N is the only kernel class
supported.  Its Laplace transform Khat(lam) = sum_j a_j b_j / (lam + b_j)
is rational, with simple real poles at -b_j and Khat(0) = sum_j a_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExponentialKernel:
    """Immutable kernel defined by its (amplitude, rate) terms.

    Terms are sorted by rate at construction; duplicate rates are rejected
    because the theory assumes strictly increasing rates.
    """

    amplitudes: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        if len(self.amplitudes) != len(self.rates):
            raise ValueError("amplitudes and rates must have equal length")
        if len(self.rates) < 1:
            raise ValueError("kernel needs at least one term")
        for a in self.amplitudes:
            if not (a > 0.0) or not math.isfinite(a):
                raise ValueError(f"amplitude {a} must be positive and finite")
        for b in self.rates:
            if not (b > 0.0) or not math.isfinite(b):
                raise ValueError(f"rate {b} must be positive and finite")
        order = sorted(range(len(self.rates)), key=lambda i: self.rates[i])
        rates = tuple(self.rates[i] for i in order)
        for r0, r1 in zip(rates, rates[1:]):
            if r0 == r1:
                raise ValueError(f"duplicate rate {r0}; rates must be distinct")
        amps = tuple(self.amplitudes[i] for i in order)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "rates", rates)

    @property
    def n_terms(self) -> int:
        return len(self.rates)

    @property
    def amplitude_sum(self) -> float:
        return sum(self.amplitudes)

    def laplace(self, lam):
        """Laplace transform sum_j a_j b_j / (lam + b_j), elementwise over a
        number or array ``lam``, summed in rate order as numpy computes it:
        next to a pole the sum is finite and large, and on a pole it is not
        finite (with numpy's divide warning)."""
        return self._pole_sum(lam, 1)

    def laplace_deriv(self, lam):
        """Derivative -sum_j a_j b_j / (lam + b_j)^2, elementwise."""
        return -self._pole_sum(lam, 2)

    def _pole_sum(self, lam, power: int):
        lam = np.asarray(lam)
        total = 0.0  # terms added in rate order
        for a, b in zip(self.amplitudes, self.rates):
            total = total + a * b / (lam + b) ** power
        return total

    def dissipativity_margin(self, b_max: float) -> float:
        """Margin 1 - b_max * sum_j a_j of the standing dissipativity assumption.

        Callers that rely on the theory must reject non-positive margins.
        """
        if b_max < 0.0:
            raise ValueError(f"b_max = {b_max} must be nonnegative")
        return 1.0 - b_max * self.amplitude_sum

    def realization(self, mat_a, factor) -> np.ndarray:
        """Real matrix [[0, I, 0], [-A, 0, -c_j F^T], [-c_j F, 0, -b_j I]].

        With c_j = sqrt(a_j b_j) and A_b = F^T F, its eigenvalues are those
        of lam^2 + A - Khat(lam) A_b in the state (u, lam u, q_j), memory
        variables q_j = -c_j F u / (lam + b_j) (linearization by realization,
        Su & Bai, SIMAX 32, 2011).  A full-row-rank F adds none at a pole.
        Leading axes of ``mat_a`` (..., n, n), ``factor`` (..., r, n) batch.
        """
        mat_a, factor = np.asarray(mat_a, float), np.asarray(factor, float)
        n, r = mat_a.shape[-1], factor.shape[-2]
        batch = np.broadcast_shapes(mat_a.shape[:-2], factor.shape[:-2])
        size = 2 * n + self.n_terms * r
        big = np.zeros(batch + (size, size))
        big[..., :n, n:2 * n] = np.eye(n)
        big[..., n:2 * n, :n] = -mat_a
        c = np.sqrt(np.multiply(self.amplitudes, self.rates))[:, None, None]
        mem = 2 * n + r * np.arange(self.n_terms)[:, None] + np.arange(r)
        big[..., mem, :n] = -c * factor[..., None, :, :]
        big[..., n:2 * n, 2 * n:] = np.swapaxes(big[..., 2 * n:, :n], -1, -2)
        big[..., mem[..., None], mem[:, None]] = (
            -np.asarray(self.rates)[:, None, None] * np.eye(r))
        return big
