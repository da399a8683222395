"""Textbook vs gauge-invariant discounting and the empirical pipeline.

The gauge-invariant factor n0/nT = exp(int (mu - sigma^2/2 + A) dt)
translates asset quantities through time without implying a risk-free
profit; the textbook factor exp(-int r dt) is retained for comparison and
is deliberately gauge dependent.

Rate series are a scalar or one value per interval of the grid passed in
(:meth:`TimeGrid.per_interval`) and exponents their exact step-function
integrals (:meth:`TimeGrid.integral`), the package's one rule of time; this
makes the gauge identities hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .gauge import PricePanel
from .grid import TimeGrid
from .riskfree import MarketGaugeResult, WeightVector, extract_market_gauge, to_riskfree_units

CASH_TAG = "#cash"

RateLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class DiscountReport:
    """Final values in risk-free units, plus the cash value in risk-free
    units at every grid point.

    Each final value is that asset's realized discount factor.
    """

    asset_ids: tuple[str, ...]
    final_values: np.ndarray
    metadata: dict = field(default_factory=dict)
    cash_values: Optional[np.ndarray] = None  # [steps+1]

    def __post_init__(self):
        values = np.asarray(self.final_values, dtype=float)
        if not np.all((values > 0) & (values < np.inf)):  # NaN fails this test
            raise ValueError("final values (discount factors) must be positive and finite")


def textbook_discount(grid: TimeGrid, r: RateLike) -> float:
    """Discount factor e^{-int r dt} over the grid; gauge dependent by construction."""
    return float(np.exp(-grid.integral(grid.per_interval(r, "r"))))


def gauge_discount(grid: TimeGrid, mu: RateLike, sigma: RateLike, a: RateLike) -> float:
    """Gauge-invariant factor n0/nT = exp(int (mu - sigma^2/2 + A) dt) over the grid.

    Invariant under the simultaneous shift (mu, A) -> (mu + phi_dot,
    A - phi_dot) exactly, because the shifted terms cancel pointwise.
    """
    mu_s = grid.per_interval(mu, "mu")
    sigma_s = grid.per_interval(sigma, "sigma")
    a_s = grid.per_interval(a, "A")
    return float(np.exp(grid.integral(mu_s - 0.5 * sigma_s**2 + a_s)))


# ---------------------------------------------------------------------------
# Empirical pipeline
# ---------------------------------------------------------------------------

def find_cash_column(asset_ids: tuple[str, ...]) -> int:
    tagged = [i for i, a in enumerate(asset_ids) if a.endswith(CASH_TAG)]
    if len(tagged) != 1:
        raise ValueError(
            f"panel must contain exactly one '{CASH_TAG}'-tagged column, found {len(tagged)}"
        )
    return tagged[0]


def rolling_drift_vol(grid: TimeGrid, values: np.ndarray, window: int = 63) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-window drift and volatility estimates per interval.

    ``values`` holds one finite, positive value per grid point.  Returns
    (mu, sigma) step series where mu is the level drift (mean log-return
    rate + sigma^2/2).  The first window is backfilled with the first
    full-window estimate.  ``window`` is at least 1; a window longer than the
    series spans all of it.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,) or not np.all((values > 0) & (values < np.inf)):
        raise ValueError("values must hold one finite, positive value per grid point")
    logret = np.diff(np.log(values))
    windows = np.lib.stride_tricks.sliding_window_view(logret, min(window, logret.size))
    backfill = (windows.shape[1] - 1, 0)
    sigma = np.pad(windows.std(axis=1), backfill, mode="edge") / np.sqrt(grid.dt)
    mu = np.pad(windows.mean(axis=1), backfill, mode="edge") / grid.dt + 0.5 * sigma**2
    return mu, sigma


def _riskfree_gauge(panel: PricePanel) -> tuple[int, WeightVector, MarketGaugeResult]:
    """Cash column, weights and market gauge of the risk-free portfolio, the
    equal-weight portfolio of the panel's non-cash columns."""
    if panel.asset_ids is None:
        raise ValueError("panel must carry asset labels")
    cash_idx = find_cash_column(panel.asset_ids)
    if panel.n_assets < 2:
        raise ValueError("panel needs a non-cash column to build the risk-free portfolio")
    if np.max(np.abs(panel.prices[0] - 1.0)) > 1e-9:
        raise ValueError(
            "panel is not normalized: scale every series to price 1 at inception "
            "(ingest with normalize=True)"
        )
    non_cash = [i for i in range(panel.n_assets) if i != cash_idx]
    weights = WeightVector.equal(len(non_cash))
    weights.require_riskfree()

    riskfree_panel = PricePanel(
        grid=panel.grid,
        prices=panel.prices[:, non_cash],
        asset_ids=tuple(panel.asset_ids[i] for i in non_cash),
    )
    return cash_idx, weights, extract_market_gauge(riskfree_panel, weights)


def empirical_pipeline(panel: PricePanel, window: int = 63) -> DiscountReport:
    """Build the risk-free portfolio, switch to the A' = 0 gauge, and report.

    The panel must carry exactly one cash column (unit price at inception)
    and every series must be normalized to 1 at inception.  The risk-free
    portfolio is built from the non-cash columns, every instrument is quoted
    in its units, and each asset's realized discount factor is its final
    value in those units.  The report also carries the cash column over
    time in those units.
    """
    cash_idx, weights, gauge = _riskfree_gauge(panel)
    converted = to_riskfree_units(panel, gauge.portfolio_value_series)

    final_values = converted.prices[-1].copy()
    labels = list(panel.asset_ids)
    # The risk-free portfolio itself is the unit of account.
    labels.append("risk-free portfolio")
    final_values = np.append(final_values, 1.0)

    # a window longer than the panel spans all of it
    window = min(window, panel.grid.steps)
    cash_mu, cash_sigma = rolling_drift_vol(panel.grid, panel.prices[:, cash_idx], window)
    windowed_cash_discount = gauge_discount(panel.grid, cash_mu, cash_sigma, gauge.a.a)

    metadata = {
        "cash_label": panel.asset_ids[cash_idx],
        "cash_discount_windowed": windowed_cash_discount,
        "n_instruments": panel.n_assets,
        "weight_scheme": "equal",
        "rebalance": "every-step",
        "window": window,
        "a_prime_gauge": True,
        "steps": panel.grid.steps,
        "dt_years": panel.grid.dt,
    }
    return DiscountReport(
        asset_ids=tuple(labels),
        final_values=final_values,
        metadata=metadata,
        cash_values=converted.prices[:, cash_idx].copy(),
    )
