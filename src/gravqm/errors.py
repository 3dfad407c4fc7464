"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BoundaryContactError",
    "NumericError",
    "ParameterError",
]


class ParameterError(ValueError):
    """An input violates a documented precondition."""


class NumericError(RuntimeError):
    """A computation failed numerically (non-convergence, NaN, overflow)."""


class BoundaryContactError(NumericError):
    """A propagated wave packet reached the edge of its grid: an edge sample
    above ``limit``, the amplitude at which a propagation is aborted."""

    limit = 1e-6

    def __init__(self, time: float, amplitude: float):
        self.time = time
        self.amplitude = amplitude
        super().__init__(
            f"wave packet touched the grid boundary at t={time:.6g} "
            f"(edge amplitude {amplitude:.3e} > {self.limit:g}); enlarge the domain"
        )
