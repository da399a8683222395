"""Transformation algebra: price gauges, trade-unit gauges, returns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeport import (
    GaugeFieldA,
    GaugeFieldB,
    GaugeScalar,
    PricePanel,
    TimeGrid,
    TradeUnitMap,
    apply_price_gauge,
    apply_trade_unit_gauge,
    nominal_return,
    portfolio_value_series,
    real_return,
    transform_gauge_a,
    transform_gauge_b,
)

GRID = TimeGrid(dt=1.0 / 252, steps=60)


def random_panel(n_assets, seed, with_quantities=True, grid=GRID):
    rng = np.random.default_rng(seed)
    prices = np.exp(rng.normal(0.0, 0.3, (grid.n_points, n_assets)))
    quantities = rng.normal(0.0, 2.0, (grid.n_points, n_assets)) if with_quantities else None
    return PricePanel(grid=grid, prices=prices, quantities=quantities)


def random_phi(seed, grid=GRID, scale=0.5):
    rng = np.random.default_rng(seed)
    return GaugeScalar(grid, rng.normal(0.0, scale, grid.n_points))


class TestPortfolioValue:
    def test_unit_case(self):
        grid = TimeGrid(1.0, 1)
        panel = PricePanel(grid, np.ones((2, 2)), np.ones((2, 2)))
        np.testing.assert_array_equal(portfolio_value_series(panel), [2.0, 2.0])

    def test_signed_dot_product(self):
        grid = TimeGrid(1.0, 1)
        panel = PricePanel(grid, [[2.0, 3.0]] * 2, [[1.0, -1.0]] * 2)
        np.testing.assert_array_equal(portfolio_value_series(panel), [-1.0, -1.0])

    def test_matches_per_term_summation(self):
        panel = random_panel(5, seed=11)
        values = portfolio_value_series(panel)
        assert values.shape == (GRID.n_points,)
        for k in (0, 30, GRID.steps):
            expected = sum(panel.prices[k, i] * panel.quantities[k, i] for i in range(5))
            assert values[k] == pytest.approx(expected, rel=1e-14)

    def test_missing_quantities(self):
        panel = random_panel(3, seed=1, with_quantities=False)
        with pytest.raises(ValueError, match="no holdings"):
            portfolio_value_series(panel)


class TestPriceGauge:
    def test_identity_gauge(self):
        panel = random_panel(3, seed=3)
        out = apply_price_gauge(panel, GaugeScalar(GRID, np.zeros(GRID.n_points)))
        np.testing.assert_array_equal(out.prices, panel.prices)
        np.testing.assert_array_equal(out.quantities, panel.quantities)

    def test_constant_log2_doubles_prices(self):
        panel = random_panel(4, seed=4)
        out = apply_price_gauge(panel, GaugeScalar(GRID, np.full(GRID.n_points, np.log(2.0))))
        np.testing.assert_allclose(out.prices, 2.0 * panel.prices, rtol=1e-15)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_price_ratios_invariant(self, seed):
        panel = random_panel(4, seed=seed)
        out = apply_price_gauge(panel, random_phi(seed + 1))
        ratio_before = panel.prices[:, :, None] / panel.prices[:, None, :]
        ratio_after = out.prices[:, :, None] / out.prices[:, None, :]
        np.testing.assert_allclose(ratio_after, ratio_before, rtol=1e-12)

    def test_grid_mismatch(self):
        panel = random_panel(2, seed=5)
        other = TimeGrid(1.0 / 12, 60)
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_price_gauge(panel, GaugeScalar(other, np.zeros(other.n_points)))


class TestTradeUnitGauge:
    def test_identity(self):
        panel = random_panel(3, seed=6)
        out = apply_trade_unit_gauge(panel, TradeUnitMap.constant(GRID, np.ones(3)))
        np.testing.assert_array_equal(out.prices, panel.prices)
        np.testing.assert_array_equal(out.quantities, panel.quantities)

    def test_stock_split(self):
        # A 2-for-1 split of the first asset doubles its quantities, halves
        # its prices and keeps the value; the second asset is untouched.
        panel = random_panel(2, seed=7)
        out = apply_trade_unit_gauge(panel, TradeUnitMap.constant(GRID, [2.0, 1.0]))
        np.testing.assert_array_equal(out.quantities[:, 0], 2.0 * panel.quantities[:, 0])
        np.testing.assert_array_equal(out.prices[:, 0], 0.5 * panel.prices[:, 0])
        np.testing.assert_array_equal(out.quantities[:, 1], panel.quantities[:, 1])
        np.testing.assert_array_equal(out.prices[:, 1], panel.prices[:, 1])
        np.testing.assert_allclose(
            portfolio_value_series(out), portfolio_value_series(panel), rtol=1e-14
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_value_invariance_random_map(self, seed):
        panel = random_panel(3, seed=seed)
        rng = np.random.default_rng(seed + 99)
        out = apply_trade_unit_gauge(panel, TradeUnitMap(GRID, np.exp(rng.normal(size=(GRID.n_points, 3)))))
        before = portfolio_value_series(panel)
        after = portfolio_value_series(out)
        np.testing.assert_allclose(after, before, rtol=1e-10, atol=1e-10 * np.abs(before).max())

    def test_singular_map_rejected(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            b = np.ones((GRID.n_points, 2))
            b[5, 1] = bad
            with pytest.raises(ValueError, match="finite and > 0"):
                TradeUnitMap(GRID, b)


class TestGaugeFieldA:
    def test_zero_phi_is_identity(self):
        a = GaugeFieldA(GRID, np.linspace(0.0, 0.1, GRID.steps))
        out = transform_gauge_a(a, GaugeScalar(GRID, np.zeros(GRID.n_points)))
        np.testing.assert_array_equal(out.a, a.a)

    def test_linear_phi_constant_shift(self):
        c = 0.07
        phi = GaugeScalar(GRID, c * GRID.points())
        out = transform_gauge_a(GaugeFieldA.zeros(GRID), phi)
        np.testing.assert_allclose(out.a, -c, rtol=1e-12)

    def test_round_trip(self):
        a = GaugeFieldA(GRID, np.random.default_rng(0).normal(size=GRID.steps))
        phi = random_phi(17)
        neg = GaugeScalar(GRID, -phi.phi)
        back = transform_gauge_a(transform_gauge_a(a, phi), neg)
        np.testing.assert_allclose(back.a, a.a, atol=1e-12)

    def test_group_action_composition(self):
        a = GaugeFieldA(GRID, np.random.default_rng(1).normal(size=GRID.steps))
        p1, p2 = random_phi(21), random_phi(22)
        combined = GaugeScalar(GRID, p1.phi + p2.phi)
        sequential = transform_gauge_a(transform_gauge_a(a, p1), p2)
        np.testing.assert_allclose(sequential.a, transform_gauge_a(a, combined).a, atol=1e-12)


def sine_map(grid, amplitudes, rate=3.0, phase=0.0):
    """Per-asset factors b_i(t) = exp(c_i sin(rate t + phase))."""
    t = grid.points()
    return TradeUnitMap(grid, np.exp(np.sin(rate * t + phase)[:, None] * np.asarray(amplitudes)))


class TestGaugeFieldB:
    def test_constant_identity_map(self):
        bf = GaugeFieldB(GRID, np.random.default_rng(2).normal(size=(GRID.steps, 2)))
        out = transform_gauge_b(bf, TradeUnitMap.constant(GRID, np.ones(2)))
        np.testing.assert_array_equal(out.diag, bf.diag)

    def test_exponential_scalar_map(self):
        # b(t) = e^{ct} on the zero field: q' = b q grows by e^{c dt} per
        # step, so B' = (e^{c dt} - 1)/dt, which tends to +c as dt -> 0.
        c = 0.4
        b = np.exp(c * GRID.points())[:, None] * np.ones(2)
        out = transform_gauge_b(GaugeFieldB.zeros(GRID, 2), TradeUnitMap(GRID, b))
        discrete_c = (np.exp(c * GRID.dt) - 1.0) / GRID.dt
        np.testing.assert_allclose(out.diag, discrete_c, rtol=1e-12)
        np.testing.assert_allclose(out.diag, c, atol=c * c * GRID.dt)

    def test_composition_with_constant_factor_exact(self):
        rng = np.random.default_rng(3)
        bf = GaugeFieldB(GRID, rng.normal(size=(GRID.steps, 2)))
        varying = sine_map(GRID, [0.2, -0.3])
        const = TradeUnitMap.constant(GRID, [2.0, 0.3])
        product = TradeUnitMap(GRID, const.b * varying.b)
        sequential = transform_gauge_b(transform_gauge_b(bf, varying), const)
        direct = transform_gauge_b(bf, product)
        np.testing.assert_allclose(sequential.diag, direct.diag, rtol=1e-12, atol=1e-12)

    def test_composition_generic_small_dt(self):
        # Two time-varying maps compose exactly, at an ordinary dt: the rule
        # is the one the discrete self-financing relation dictates.
        rng = np.random.default_rng(4)
        bf = GaugeFieldB(GRID, rng.normal(size=(GRID.steps, 3)))
        b1 = sine_map(GRID, rng.normal(size=3), rate=2.0, phase=1.0)
        b2 = sine_map(GRID, rng.normal(size=3), rate=30.0, phase=2.0)
        product = TradeUnitMap(GRID, b2.b * b1.b)
        sequential = transform_gauge_b(transform_gauge_b(bf, b1), b2)
        direct = transform_gauge_b(bf, product)
        scale = np.max(np.abs(direct.diag))
        np.testing.assert_allclose(sequential.diag, direct.diag, rtol=1e-12, atol=1e-12 * scale)


class TestReturns:
    def test_constant_series_zero_return(self):
        out = nominal_return(GRID, np.full(GRID.n_points, 3.7))
        np.testing.assert_array_equal(out, np.zeros(GRID.steps))

    def test_exponential_growth_exact(self):
        g = 0.12
        out = nominal_return(GRID, np.exp(g * GRID.points()))
        np.testing.assert_allclose(out, g, rtol=1e-10)

    def test_gauge_shift_is_discrete_phi_dot(self):
        values = np.exp(np.random.default_rng(5).normal(size=GRID.n_points))
        phi = random_phi(23)
        base = nominal_return(GRID, values)
        gauged = nominal_return(GRID, values * np.exp(phi.phi))
        np.testing.assert_allclose(gauged - base, phi.rate(), atol=1e-10)

    def test_nonpositive_rejected(self):
        values = np.ones(GRID.n_points)
        values[3] = -1.0
        with pytest.raises(ValueError, match="strictly positive"):
            nominal_return(GRID, values)
        with pytest.raises(ValueError, match="strictly positive"):
            real_return(GRID, values, GaugeFieldA.zeros(GRID))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("function", [
        lambda values: nominal_return(TimeGrid(0.1, 3), values),
        lambda values: real_return(TimeGrid(0.1, 3), values, GaugeFieldA.zeros(TimeGrid(0.1, 3))),
    ], ids=["nominal_return", "real_return"])
    def test_nonfinite_rejected(self, function, bad):
        with pytest.raises(ValueError, match="strictly positive finite"):
            function(np.array([1.0, bad, 1.2, 1.3]))

    def test_real_return_trivial_zero(self):
        out = real_return(GRID, np.full(GRID.n_points, 2.0), GaugeFieldA.zeros(GRID))
        np.testing.assert_array_equal(out, np.zeros(GRID.steps))

    def test_riskfree_portfolio_zero_real_return(self):
        r = 0.05
        values = np.exp(r * GRID.points())
        a = GaugeFieldA(GRID, np.full(GRID.steps, -r))
        out = real_return(GRID, values, a)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_real_return_gauge_invariant_fuzz(self):
        values = np.exp(np.random.default_rng(6).normal(0.0, 0.2, GRID.n_points))
        a = GaugeFieldA(GRID, np.random.default_rng(7).normal(size=GRID.steps))
        base = real_return(GRID, values, a)
        for seed in range(100):
            phi = random_phi(1000 + seed)
            gauged = real_return(GRID, values * np.exp(phi.phi), transform_gauge_a(a, phi))
            np.testing.assert_allclose(gauged, base, atol=1e-10)
