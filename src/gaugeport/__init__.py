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
    ReturnSeries,
    TradeUnitMap,
    apply_price_gauge,
    apply_trade_unit_gauge,
    nominal_return,
    portfolio_value,
    portfolio_value_series,
    real_return,
    transform_gauge_a,
    transform_gauge_b,
)
from .sim import (
    EnvironmentSeries,
    NumeraireSpec,
    PathSet,
    ProcessSpec,
    apply_numeraire,
    constant_spec,
    cross_term,
    portfolio_dynamics,
    return_volatility,
    simulate,
    terminal_prices,
)
from .riskfree import (
    MarketGaugeResult,
    SensitivityProblem,
    WeightVector,
    balance_residuals,
    convergence_study,
    delta_hedge,
    etemadi_check,
    extract_market_gauge,
    insensitivity_residual,
    riskfree_studies,
    sensitivity_neutral_weights,
    to_riskfree_units,
)
from .pricer import (
    EffectiveVol,
    OptionSurface,
    PdeProblem,
    bs_closed_form,
    bs_closed_form_rate,
    effective_vol,
    merton_residual,
    solve_gauge_bs,
    solve_primed_gauge,
    vanilla_problem,
)
from .discounting import (
    DiscountReport,
    empirical_pipeline,
    forward_translate,
    gauge_discount,
    textbook_discount,
)
