"""Gauge-invariant portfolio analytics.

Construct approximately risk-free portfolios from simulated or ingested
prices, extract the market gauge fields, price options under the
gauge-field pricing equation, and discount cash flows gauge-invariantly.
"""

__version__ = "0.1.0"

from .grid import TimeGrid
from .gauge import (
    GaugeFieldA,
    GaugeFieldB,
    GaugeScalar,
    PricePanel,
    TradeUnitMap,
    apply_price_gauge,
    apply_trade_unit_gauge,
    nominal_return,
    portfolio_value_series,
    real_return,
    transform_gauge_a,
    transform_gauge_b,
)
from .sim import (
    PathSet,
    ProcessSpec,
    TerminalStats,
    cross_term,
    return_volatility,
    simulate,
    terminal_stats,
)
from .riskfree import (
    MarketGaugeResult,
    SensitivityProblem,
    WeightVector,
    balance_residuals,
    extract_market_gauge,
    riskfree_studies,
    sensitivity_neutral_weights,
    to_riskfree_units,
)
from .pricer import (
    OptionSlice,
    PdeProblem,
    bs_closed_form,
    bs_closed_form_rate,
    merton_residual,
    solve_primed_gauge,
    solve_today,
    vanilla_problem,
)
from .discounting import (
    DiscountReport,
    empirical_pipeline,
    gauge_discount,
    textbook_discount,
)
