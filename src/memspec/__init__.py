"""Spectra and numerical-range enclosures of memory-damped wave symbols."""

from .boxmodes import BoxDomain, enumerate_modes, min_stiffness, mode_alpha
from .enclosure import (
    EnclosureRegion,
    EssentialSpectrum,
    OnePoleStrips,
    boundary_cloud,
    enclosure_interval,
    essential_spectrum,
    one_pole_region,
)
from .errors import (
    ConfigError,
    HypothesisError,
    MemspecError,
    RootFindingError,
)
from .kernel import ExponentialKernel
from .pencil import (
    ModePencil,
    SymTridiagonal,
    discretize_1d,
    nonlinear_eigenvalues_fd,
)
from .scalar import (
    DampingBound,
    ModeCoefficients,
    cleared_mode_polynomial,
    fredholm_factor_zeros,
    jordan_condition,
    mode_spectra,
    rational_symbol,
)

__all__ = [
    "BoxDomain",
    "ConfigError",
    "DampingBound",
    "EnclosureRegion",
    "EssentialSpectrum",
    "ExponentialKernel",
    "HypothesisError",
    "MemspecError",
    "ModeCoefficients",
    "ModePencil",
    "OnePoleStrips",
    "RootFindingError",
    "SymTridiagonal",
    "boundary_cloud",
    "cleared_mode_polynomial",
    "discretize_1d",
    "enclosure_interval",
    "enumerate_modes",
    "essential_spectrum",
    "fredholm_factor_zeros",
    "jordan_condition",
    "min_stiffness",
    "mode_alpha",
    "mode_spectra",
    "nonlinear_eigenvalues_fd",
    "one_pole_region",
    "rational_symbol",
]

__version__ = "0.1.0"
