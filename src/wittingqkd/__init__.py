"""Exact-arithmetic toolkit for quantum key distribution on the 40-state
Witting configuration: state geometry, symmetry group, exact Born-rule
measurement, protocol simulation, and classical-model refutation."""

from .eisenstein import Eisenstein, UNITS
from .configuration import (
    Basis,
    Card,
    ConfigurationError,
    ProjectiveState,
    WittingConfiguration,
)

__all__ = [
    "Basis",
    "Card",
    "ConfigurationError",
    "Eisenstein",
    "ProjectiveState",
    "UNITS",
    "WittingConfiguration",
]

__version__ = "0.1.0"
