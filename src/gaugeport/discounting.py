"""Textbook vs gauge-invariant discounting and the empirical pipeline.

The gauge-invariant factor n0/nT = exp(int (mu - sigma^2/2 + A) dt)
translates asset quantities through time without implying a risk-free
profit; the textbook factor exp(-int r dt) is retained for comparison and
is deliberately gauge dependent.

All rate series are step functions on grid intervals and exponents are
integrated as exact step-function integrals (sum * dt), the same forward-
difference convention used everywhere else; this makes the gauge identities
hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .gauge import GaugeFieldA, PricePanel
from .riskfree import MarketGaugeResult, WeightVector, extract_market_gauge, to_riskfree_units

CASH_TAG = "#cash"

RateLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class LabeledSeries:
    label: str
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class DiscountReport:
    """Final values in risk-free units (table shape), plus the cash value in
    risk-free units over time.

    Each final value is that asset's realized discount factor.
    """

    asset_ids: tuple[str, ...]
    final_values: np.ndarray
    metadata: dict = field(default_factory=dict)
    cash_series: Optional[LabeledSeries] = None

    def __post_init__(self):
        if np.any(self.final_values <= 0):
            raise ValueError("final values (discount factors) must be positive")

    def as_table(self) -> str:
        """Aligned plain-text table of final asset values."""
        width = max(len(a) for a in self.asset_ids) + 2
        lines = ["Final Asset Values", "-" * (width + 8)]
        for label, value in zip(self.asset_ids, self.final_values):
            lines.append(f"{label:<{width}}{value:8.3f}")
        return "\n".join(lines)


def _as_rate_series(value: RateLike, n_intervals: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_intervals, float(arr))
    if arr.shape != (n_intervals,):
        raise ValueError(f"coverage gap: {name} has {arr.shape[0]} values for {n_intervals} intervals")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _resolve_intervals(*series: RateLike) -> int:
    lengths = {np.asarray(s).shape[0] for s in series if np.asarray(s).ndim > 0}
    if len(lengths) > 1:
        raise ValueError(f"coverage gap: rate series lengths differ: {sorted(lengths)}")
    return lengths.pop() if lengths else 1


def textbook_discount(r: RateLike, T: float) -> float:
    """Discount factor e^{-int_0^T r dt}; gauge dependent by construction."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    n = _resolve_intervals(r)
    rates = _as_rate_series(r, n, "r")
    dt = T / n
    return float(np.exp(-np.sum(rates) * dt))


def gauge_discount(mu: RateLike, sigma: RateLike, a: Union[RateLike, GaugeFieldA], T: float) -> float:
    """Gauge-invariant factor n0/nT = exp(int (mu - sigma^2/2 + A) dt).

    Invariant under the simultaneous shift (mu, A) -> (mu + phi_dot,
    A - phi_dot) exactly, because the shifted terms cancel pointwise.
    """
    if T <= 0:
        raise ValueError("horizon must be positive")
    if isinstance(a, GaugeFieldA):
        a = a.a
    n = _resolve_intervals(mu, sigma, a)
    mu_s = _as_rate_series(mu, n, "mu")
    sigma_s = _as_rate_series(sigma, n, "sigma")
    a_s = _as_rate_series(a, n, "A")
    dt = T / n
    return float(np.exp(np.sum(mu_s - 0.5 * sigma_s**2 + a_s) * dt))


def forward_translate(n0: float, s_values: np.ndarray) -> float:
    """Quantity at the horizon from n0 s(0) = nT s(T)."""
    s_values = np.asarray(s_values, dtype=float)
    if np.any(s_values <= 0):
        raise ValueError("price series must be strictly positive")
    return float(n0 * s_values[0] / s_values[-1])


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


def rolling_drift_vol(
    values: np.ndarray, dt: float, window: int = 63
) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-window drift and volatility estimates per interval.

    Returns (mu, sigma) step series where mu is the level drift
    (mean log-return rate + sigma^2/2).  The first window is backfilled with
    the first full-window estimate.
    """
    logret = np.diff(np.log(values))
    n = logret.size
    window = min(window, n)
    mu = np.empty(n)
    sigma = np.empty(n)
    for k in range(n):
        lo = max(0, k + 1 - window)
        chunk = logret[lo : k + 1] if k + 1 >= window else logret[:window]
        sig = float(np.std(chunk)) / np.sqrt(dt)
        sigma[k] = sig
        mu[k] = float(np.mean(chunk)) / dt + 0.5 * sig**2
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


def _cash_series(panel: PricePanel, cash_idx: int, values: np.ndarray) -> LabeledSeries:
    return LabeledSeries(
        label=f"{panel.asset_ids[cash_idx]} (risk-free units)",
        times=panel.grid.points(),
        values=values,
    )


def empirical_pipeline(panel: PricePanel, window: int = 63) -> DiscountReport:
    """Build the risk-free portfolio, switch to the A' = 0 gauge, and report.

    The panel must carry exactly one cash column (unit price at inception)
    and every series must be normalized to 1 at inception.  The risk-free
    portfolio is built from the non-cash columns, every instrument is quoted
    in its units, and each asset's realized discount factor is its final
    value in those units.  The report also carries the cash column over
    time in those units, as :func:`cash_value_series` gives it.
    """
    cash_idx, weights, gauge = _riskfree_gauge(panel)
    converted = to_riskfree_units(panel, gauge.portfolio_value_series)

    final_values = converted.prices[-1].copy()
    labels = list(panel.asset_ids)
    # The risk-free portfolio itself is the unit of account.
    labels.append("risk-free portfolio")
    final_values = np.append(final_values, 1.0)

    cash_mu, cash_sigma = rolling_drift_vol(panel.prices[:, cash_idx], panel.grid.dt, window)
    windowed_cash_discount = gauge_discount(cash_mu, cash_sigma, gauge.a, panel.grid.horizon)

    metadata = {
        "cash_label": panel.asset_ids[cash_idx],
        "cash_discount_windowed": windowed_cash_discount,
        "n_instruments": panel.n_assets,
        "weight_scheme": weights.scheme,
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
        cash_series=_cash_series(panel, cash_idx, converted.prices[:, cash_idx].copy()),
    )


def cash_value_series(panel: PricePanel) -> LabeledSeries:
    """Cash value in risk-free units over time (plot-ready)."""
    cash_idx, _weights, gauge = _riskfree_gauge(panel)
    return _cash_series(panel, cash_idx, panel.prices[:, cash_idx] / gauge.portfolio_value_series)
