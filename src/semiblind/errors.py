"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ConfigError", "SingularSystemError"]


class ConfigError(ValueError):
    """Invalid or degenerate configuration (bad grid, alpha outside (0,1), ...)."""


class SingularSystemError(RuntimeError):
    """A linear system was singular or too ill-conditioned to solve.

    Carries the offending condition-number estimate when available.
    """

    def __init__(self, message: str, condition: float | None = None):
        if condition is not None:
            message = f"{message} (condition estimate {condition:.3e})"
        super().__init__(message)
        self.condition = condition
