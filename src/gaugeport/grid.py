"""Uniform time grids and the package's one discrete rule of time."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid k*dt for k = 0..steps.

    All time series in the package live either on the steps+1 grid points
    or on the steps intervals between them.  Rates act on intervals, so the
    grid fixes no origin of time: it starts at 0.  Every rate is
    :meth:`rate` and every integral of a rate :meth:`integral`; with this
    one rule the gauge-shift identities hold exactly in floating point.
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
        # steps * dt raises OverflowError for a count near 2^1024, so refuse it first
        if steps > 2**1023 or not steps * self.dt < np.inf:
            raise ValueError(f"horizon steps * dt must be finite, got {steps} * {self.dt}")
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

    def rate(self, values: np.ndarray) -> np.ndarray:
        """Forward difference per unit time along axis 0: (x[k+1] - x[k]) / dt."""
        out = np.diff(np.asarray(values, dtype=float), axis=0)
        out /= self.dt
        return out

    def integral(self, rates: np.ndarray) -> float:
        """Exact integral of a step function over the grid: sum(rates) * dt."""
        return float(np.sum(rates) * self.dt)

    def per_interval(self, value: float | np.ndarray, name: str) -> np.ndarray:
        """A scalar or one value per interval, as a new finite [steps] array."""
        arr = np.array(value, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.steps, arr)
        elif arr.shape != (self.steps,):
            found = f"{arr.size} values" if arr.ndim == 1 else f"shape {arr.shape}"
            raise ValueError(f"coverage gap: {name} has {found} for {self.steps} intervals")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        return arr


def require_same_grid(a: TimeGrid, b: TimeGrid, what: str = "series") -> None:
    if a != b:
        raise ValueError(f"grid mismatch between {what}: {a} vs {b}")
