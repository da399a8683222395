"""Uniform time grids shared by every module."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid k*dt for k = 0..steps.

    All time series in the package live either on the steps+1 grid points
    or on the steps intervals between them.  Rates act on intervals, so the
    grid fixes no origin of time: it starts at 0.
    """

    dt: float
    steps: int

    def __post_init__(self):
        if not 0 < self.dt < np.inf:  # NaN fails this test
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        try:
            steps = operator.index(self.steps)
        except TypeError:
            raise ValueError(f"steps must be an integer, got {self.steps!r}") from None
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        object.__setattr__(self, "steps", steps)

    @property
    def n_points(self) -> int:
        return self.steps + 1

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def points(self) -> np.ndarray:
        """Grid points k*dt, k = 0..steps."""
        return self.dt * np.arange(self.steps + 1)


def require_same_grid(a: TimeGrid, b: TimeGrid, what: str = "series") -> None:
    if a != b:
        raise ValueError(f"grid mismatch between {what}: {a} vs {b}")
