"""Exception hierarchy shared across the toolkit.

Every failure mode that a caller may want to catch programmatically gets
its own class; diagnostic payloads (offending state, counts, residuals)
ride on the exception instance so batch drivers can log them.
"""

from __future__ import annotations

from typing import Any


class ClinewaveError(Exception):
    """Base class for all toolkit errors."""


class FieldInvariantError(ClinewaveError):
    """A simulated field left its admissible range beyond tolerance.

    Carries a diagnostic snapshot: the time and the offending fields at
    the moment the violation was detected.
    """

    def __init__(self, message: str, t: float, snapshot: dict[str, Any]):
        super().__init__(message)
        self.t = t
        self.snapshot = snapshot


class FrontTrackingError(ClinewaveError):
    """Level-crossing front position is undefined for the given field."""

    def __init__(self, message: str, crossings: int):
        super().__init__(message)
        self.crossings = crossings


class InsufficientSamplesError(ClinewaveError):
    """Too few recorded front positions inside the requested time window."""


class NoHeteroclinicError(ClinewaveError):
    """Phase-plane shot escaped before reaching the symmetry axis."""

    def __init__(self, message: str, escape_state: tuple[float, float]):
        super().__init__(message)
        self.escape_state = escape_state


class ProfileTooShortError(ClinewaveError):
    """Profile tails carry too much integral weight for a reliable quadrature."""


class QuadratureError(ClinewaveError):
    """A quadrature came out non-finite or missed its tolerance."""


class NewtonDivergenceError(ClinewaveError):
    """Newton iteration for the traveling-wave system did not converge."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


class ConvergenceError(ClinewaveError):
    """An iterative procedure ran out of its horizon before converging."""


class ConfigError(ClinewaveError):
    """Run configuration could not be parsed or contains unknown keys."""
