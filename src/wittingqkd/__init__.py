"""Exact-arithmetic toolkit for quantum key distribution on the 40-state
Witting configuration: state geometry, symmetry group, exact Born-rule
measurement, protocol simulation, and classical-model refutation.

The configuration names load :mod:`.configuration`, and with it numpy, on
first access (PEP 562), so ``from wittingqkd import Eisenstein`` and
``from wittingqkd import Card`` (from :mod:`.cards`) stay free of numpy."""

from .eisenstein import Eisenstein, UNITS

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


def __getattr__(name: str):
    if name == "Card":
        from .cards import Card

        return Card
    if name in __all__:
        from . import configuration

        return getattr(configuration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
