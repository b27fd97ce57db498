"""Eigenvalue record carried from the solvers to the CLI emitters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EigenvalueRecord:
    """One eigenvalue with provenance, residual, and branch classification.

    ``source`` is either a mode index string like ``"m=1-2"`` or ``"fd"``;
    ``branch`` is ``"real"`` or ``"complex-pair"``; ``jordan_ok`` is set only
    for real eigenvalues where the chain-length condition was evaluated.
    """

    re: float
    im: float
    source: str
    branch: str
    residual: float
    jordan_ok: bool | None = None

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)
