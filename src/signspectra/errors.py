"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ParseError",
    "CapExceededError",
    "ConvergenceError",
    "WitnessDegenerateError",
]


class ParseError(ValueError):
    """Raised for malformed sign-pattern text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class CapExceededError(ValueError):
    """Raised when a request exceeds a size cap that exists on purpose."""


class ConvergenceError(RuntimeError):
    """Root iteration failed to reach the residual target.

    ``row`` is the index of a row that did not converge, in the input of
    the call that raised.
    """

    def __init__(self, message: str, worst_residual: float, row: int):
        super().__init__(message)
        self.worst_residual = worst_residual
        self.row = row


class WitnessDegenerateError(RuntimeError):
    """Eigenvector witness construction collapsed; names the failing target."""

    def __init__(self, message: str, target_index: int):
        super().__init__(message)
        self.target_index = target_index
