"""The package's public surface."""

import types

import gaugeport

PUBLIC_NAMES = [
    "DiscountReport", "EnvironmentSeries", "GaugeFieldA", "GaugeFieldB", "GaugeScalar",
    "MarketGaugeResult", "OptionSlice", "PathSet", "PdeProblem", "PricePanel", "ProcessSpec",
    "SensitivityProblem", "TerminalStats", "TimeGrid", "TradeUnitMap", "WeightVector",
    "apply_price_gauge", "apply_trade_unit_gauge", "balance_residuals", "bs_closed_form",
    "bs_closed_form_rate", "constant_spec", "cross_term", "empirical_pipeline",
    "extract_market_gauge", "gauge_discount", "merton_residual", "nominal_return",
    "portfolio_value_series", "real_return", "return_volatility", "riskfree_studies",
    "sensitivity_neutral_weights", "simulate", "solve_primed_gauge", "solve_today",
    "terminal_stats", "textbook_discount", "to_riskfree_units", "transform_gauge_a",
    "transform_gauge_b", "vanilla_problem",
]


def test_public_names_are_pinned():
    # adding or dropping an export is a deliberate edit of this list; the
    # submodules are left out, since which of them are loaded depends on
    # what was imported before
    public = sorted(
        name for name, value in vars(gaugeport).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
