"""Price/quantity panels, gauge fields, and the exact transformation algebra.

The trade-unit field B_N is held as its diagonal, one rate per asset and
interval, and a trade-unit map as one positive unit factor per asset and
grid point (a split or a redenomination): extraction produces nothing else,
so every field here is an O(steps N) array.

Conventions used throughout the package:

* Deterministic gauge parameters phi(t) live on grid points (steps+1 values).
* Rate-like fields (A, B, returns) live on the steps intervals between grid
  points.
* Every discrete time derivative is :meth:`TimeGrid.rate`, the forward
  difference over an interval, taken on log-quantities where the continuous
  object is a logarithmic derivative.  With this single rule the gauge-shift
  identities hold exactly in floating point, not merely to O(dt).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid import TimeGrid, require_same_grid


@dataclass(frozen=True)
class PricePanel:
    """Time-gridded prices (and optionally quantities) for N instruments."""

    grid: TimeGrid
    prices: np.ndarray  # [steps+1, N]
    quantities: Optional[np.ndarray] = None  # [steps+1, N]
    asset_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 2:
            raise ValueError("prices must be a [steps+1, N] matrix")
        if prices.shape[0] != self.grid.n_points:
            raise ValueError(
                f"prices have {prices.shape[0]} rows, grid has "
                f"{self.grid.n_points} points"
            )
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0):
            raise ValueError("prices must be finite and strictly positive")
        if self.quantities is not None:
            q = np.asarray(self.quantities, dtype=float)
            object.__setattr__(self, "quantities", q)
            if q.shape != prices.shape:
                raise ValueError("quantities must match the price matrix shape")
        if self.asset_ids is not None:
            ids = tuple(self.asset_ids)
            object.__setattr__(self, "asset_ids", ids)
            if len(ids) != prices.shape[1]:
                raise ValueError("asset_ids length must equal the number of columns")

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]


@dataclass(frozen=True)
class GaugeScalar:
    """Deterministic log-scale gauge parameter phi(t) on grid points."""

    grid: TimeGrid
    phi: np.ndarray  # [steps+1]

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.shape != (self.grid.n_points,):
            raise ValueError("phi must hold one value per grid point")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite everywhere")

    def rate(self) -> np.ndarray:
        """Discrete phi-dot on the intervals."""
        return self.grid.rate(self.phi)


@dataclass(frozen=True)
class GaugeFieldA:
    """Rescaling gauge field A(t), one rate value per interval."""

    grid: TimeGrid
    a: np.ndarray  # [steps]

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.shape != (self.grid.steps,):
            raise ValueError("a must hold one value per grid interval")
        if not np.all(np.isfinite(a)):
            raise ValueError("gauge field A must be finite")

    @staticmethod
    def zeros(grid: TimeGrid) -> "GaugeFieldA":
        return GaugeFieldA(grid, np.zeros(grid.steps))


@dataclass(frozen=True)
class TradeUnitMap:
    """Per-asset trade-unit factors b(t): q' = b q and s' = s / b.

    Each factor is finite and > 0, so the map is a split or a
    redenomination of each asset, never a mix of assets.
    """

    grid: TimeGrid
    b: np.ndarray  # [steps+1, N]

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.ndim != 2 or b.shape[0] != self.grid.n_points:
            raise ValueError("b must be a [steps+1, N] array of unit factors")
        if not np.all(np.isfinite(b)) or np.any(b <= 0):
            raise ValueError("trade-unit factors must be finite and > 0")

    @property
    def n_assets(self) -> int:
        return self.b.shape[1]

    @staticmethod
    def constant(grid: TimeGrid, factors: np.ndarray) -> "TradeUnitMap":
        factors = np.asarray(factors, dtype=float)
        return TradeUnitMap(grid, np.broadcast_to(factors, (grid.n_points, *factors.shape)).copy())


@dataclass(frozen=True)
class GaugeFieldB:
    """Trade-unit gauge field B_N as its diagonal, one rate per asset and interval."""

    grid: TimeGrid
    diag: np.ndarray  # [steps, N]

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        object.__setattr__(self, "diag", diag)
        if diag.ndim != 2 or diag.shape[0] != self.grid.steps:
            raise ValueError("B_N must be a [steps, N] array, one row per interval")
        if not np.all(np.isfinite(diag)):
            raise ValueError("gauge field B must be finite")

    @staticmethod
    def zeros(grid: TimeGrid, n: int) -> "GaugeFieldB":
        return GaugeFieldB(grid, np.zeros((grid.steps, n)))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def portfolio_value_series(panel: PricePanel) -> np.ndarray:
    """Portfolio value at every grid point."""
    if panel.quantities is None:
        raise ValueError("no holdings: panel has no quantities")
    return np.einsum("ki,ki->k", panel.prices, panel.quantities)


def apply_price_gauge(panel: PricePanel, phi: GaugeScalar) -> PricePanel:
    """Rescale all prices by e^{phi(t)}; quantities are untouched."""
    require_same_grid(panel.grid, phi.grid, "panel/phi")
    scale = np.exp(phi.phi)[:, None]
    return replace(panel, prices=panel.prices * scale)


def apply_trade_unit_gauge(panel: PricePanel, b: TradeUnitMap) -> PricePanel:
    """Redefine trade units: q' = b q and s' = s / b pointwise in t."""
    require_same_grid(panel.grid, b.grid, "panel/trade-unit map")
    if b.n_assets != panel.n_assets:
        raise ValueError("trade-unit map dimension does not match the panel")
    quantities = None
    if panel.quantities is not None:
        quantities = b.b * panel.quantities
    return replace(panel, prices=panel.prices / b.b, quantities=quantities)


def transform_gauge_a(a: GaugeFieldA, phi: GaugeScalar) -> GaugeFieldA:
    """Gauge shift A -> A - phi_dot with the discrete forward-difference rate."""
    require_same_grid(a.grid, phi.grid, "A/phi")
    return GaugeFieldA(a.grid, a.a - phi.rate())


def transform_gauge_b(bf: GaugeFieldB, b: TradeUnitMap) -> GaugeFieldB:
    """Gauge action B' = (b[k+1] B + (b[k+1] - b[k]) / dt) / b[k] per asset.

    This is the rule under which q' = b q keeps the discrete self-financing
    relation q[k+1] - q[k] = dt B[k] q[k] exact, so the balance identities
    hold in any trade units, and transforming by b1 then b2 equals
    transforming by the product b2 b1.
    """
    require_same_grid(bf.grid, b.grid, "B/trade-unit map")
    if b.n_assets != bf.diag.shape[1]:
        raise ValueError("trade-unit map dimension does not match the field")
    left, right = b.b[:-1], b.b[1:]
    return GaugeFieldB(bf.grid, (right * bf.diag + b.grid.rate(b.b)) / left)


def nominal_return(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Per-interval log-return per unit time of a positive value series, [steps]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise ValueError("values must hold one entry per grid point")
    if not np.all((values > 0) & (values < np.inf)):  # NaN fails this test
        raise ValueError("log derivative requires strictly positive finite values")
    return grid.rate(np.log(values))


def real_return(grid: TimeGrid, values: np.ndarray, a: GaugeFieldA) -> np.ndarray:
    """Gauge-invariant real return mu(t) = nominal return + A(t), [steps].

    Invariant under (values, A) -> (e^{phi} values, A - phi_dot) because the
    same forward-difference rule generates both shifts.
    """
    require_same_grid(grid, a.grid, "values/A")
    return nominal_return(grid, values) + a.a
