"""Dense real polynomials: the cleared mode polynomial's container.

No solver path finds polynomial roots; the modes are solved on their
realization (see :func:`memspec.scalar.mode_spectra`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RealPolynomial:
    """Dense real polynomial; coefficients ascending, leading one nonzero."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = [float(x) for x in self.coeffs]
        if not c:
            raise ValueError("empty coefficient list")
        if not all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if len(c) == 1 and c[0] == 0.0:
            raise ValueError("the zero polynomial is not representable")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, lam):
        return np.polyval(self.coeffs[::-1], lam)

    def scaled(self) -> "RealPolynomial":
        """Same roots, coefficients divided by max |coeff|."""
        m = max(abs(c) for c in self.coeffs)
        return RealPolynomial(tuple(c / m for c in self.coeffs))
