"""Exception hierarchy shared across the toolkit.

Every failure mode that a caller may want to catch programmatically gets
its own class. Diagnostics (offending state, counts, residuals) are the
keywords the raise site passes, kept as ``exc.diagnostics`` for batch
drivers and ``error.json``; each class names its keys. The errors pickle
with their class, message and diagnostics, so one raised in a process
pool's worker reaches the caller intact.
"""

from __future__ import annotations


class ClinewaveError(Exception):
    """Base class for all toolkit errors; ``diagnostics`` holds the raise's keywords."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class FieldInvariantError(ClinewaveError):
    """A field left its admissible range: at time ``t``, with the fields' ``snapshot``."""


class FrontTrackingError(ClinewaveError):
    """Level-crossing front position is undefined: ``crossings`` counts the crossings."""


class InsufficientSamplesError(ClinewaveError):
    """Too few recorded front positions (``samples``) inside the requested window."""


class NoHeteroclinicError(ClinewaveError):
    """Phase-plane shot escaped, at ``escape_state``, before reaching the symmetry axis."""


class ProfileTooShortError(ClinewaveError):
    """Profile tails carry too much integral weight (``tail_weight``) for the quadrature."""


class QuadratureError(ClinewaveError):
    """A quadrature's ``sums`` came out non-finite, or its panel ``gap`` missed tolerance."""


class NewtonDivergenceError(ClinewaveError):
    """Newton iteration for the traveling-wave system did not converge (``last_residual``)."""


class ConvergenceError(ClinewaveError):
    """An iterative procedure ran out of its horizon (``last_distance``, where measured)."""


class RunSizeError(ClinewaveError, ValueError):
    """A run's ``size`` (steps, nodes or recorded values) exceeds its ``limit``; refused
    before it allocates or steps. A ValueError, as any parameter outside its domain."""


class ConfigError(ClinewaveError):
    """Run configuration could not be parsed or contains unknown keys."""
