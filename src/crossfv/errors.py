"""Exception taxonomy shared across the solver, and the config rules for numbers."""

from __future__ import annotations

from numbers import Real


class CrossFVError(Exception):
    """Base class for all solver errors."""


class ConfigurationError(CrossFVError):
    """Invalid mesh/kernel/scheme/experiment configuration."""


def _integer(value, key: str, minimum: int | None = None) -> int:
    """An integer of at least `minimum`, else an error naming `key`; 16.0 passes, 16.7 fails."""
    ok = not isinstance(value, bool) and isinstance(value, Real) and float(value).is_integer()
    if not ok or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"{key} must be an integer{bound}, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """A real number as a float, else an error naming `key`; a string or a boolean fails."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(f"{key} must be a real number, got {value!r}")
    return float(value)


class UsageError(CrossFVError):
    """An operation was called with arguments outside its contract."""


class NumericalStateError(CrossFVError):
    """Non-finite or otherwise unusable numerical state was encountered."""


class SolverFailure(CrossFVError):
    """A linear solve exhausted its iteration budget.

    Carries the residual history so the caller can diagnose stagnation.
    """

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class StepFailure(CrossFVError):
    """A time step did not converge (Picard budget exhausted or solve failed).

    Carries the Picard error history of the step and, when a linear solve
    failed, that solve's residual history.
    """

    def __init__(
        self,
        message: str,
        step_index: int | None = None,
        error_history=None,
        residual_history=None,
    ):
        super().__init__(message)
        self.step_index = step_index
        self.error_history = list(error_history or [])
        self.residual_history = list(residual_history or [])
