import numpy as np
import pytest

from gaugeport import (
    GaugeFieldA,
    PricePanel,
    TimeGrid,
    empirical_pipeline,
    forward_translate,
    gauge_discount,
    textbook_discount,
)
from gaugeport.discounting import (
    DiscountReport,
    find_cash_column,
    rolling_drift_vol,
)


class TestTextbookDiscount:
    def test_ten_year_treasury_rate(self):
        # 4.06% for ten years: about a third of the claim evaporates
        assert textbook_discount(0.0406, 10.0) == pytest.approx(0.666, abs=1e-3)

    def test_constant_rate_closed_form(self):
        assert textbook_discount(0.05, 20.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_step_rate_series(self):
        # r = 2% for the first half, 6% for the second: same as 4% flat
        r = np.concatenate([np.full(50, 0.02), np.full(50, 0.06)])
        assert textbook_discount(r, 10.0) == pytest.approx(np.exp(-0.4), rel=1e-12)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            textbook_discount(0.05, 0.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize(
        "discount",
        [lambda T: textbook_discount(0.05, T), lambda T: gauge_discount(0.05, 0.2, 0.0, T)],
        ids=["textbook", "gauge"],
    )
    def test_horizon_must_be_positive_and_finite(self, discount, horizon):
        # nan gave nan, and inf gave 0.0, a discount factor with no horizon
        with pytest.raises(ValueError, match="^horizon must be positive and finite"):
            discount(horizon)


class TestGaugeDiscount:
    def test_gauge_shift_cancels(self):
        # (mu, A) -> (mu + phi_dot, A - phi_dot) leaves the factor unchanged
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(4, 40)
            mu = rng.normal(0.05, 0.1, n)
            sigma = rng.uniform(0.0, 0.4, n)
            a = rng.normal(0.0, 0.1, n)
            shift = rng.normal(0.0, 2.0, n)
            base = gauge_discount(mu, sigma, a, 3.0)
            shifted = gauge_discount(mu + shift, sigma, a - shift, 3.0)
            assert shifted == pytest.approx(base, rel=1e-10)

    def test_textbook_factor_is_gauge_dependent(self):
        # under the same shift the textbook factor changes by exactly
        # exp(phi(0) - phi(T)): a non-invariance identity, not an error bound
        rng = np.random.default_rng(18)
        n, T = 25, 5.0
        r = rng.normal(0.04, 0.02, n)
        shift = rng.normal(0.0, 1.0, n)
        dt = T / n
        base = textbook_discount(r, T)
        moved = textbook_discount(r - shift, T)
        assert moved == pytest.approx(base * np.exp(np.sum(shift) * dt), rel=1e-12)

    def test_reduces_to_textbook_for_constant_claim(self):
        # a constant-price claim (mu = sigma = 0) in the A = -r gauge
        assert gauge_discount(0.0, 0.0, -0.0406, 10.0) == pytest.approx(
            textbook_discount(0.0406, 10.0), rel=1e-14
        )

    def test_accepts_gauge_field_object(self):
        grid = TimeGrid(0.5, 4)
        a = GaugeFieldA(grid, np.full(4, -0.03))
        assert gauge_discount(0.0, 0.0, a, 2.0) == pytest.approx(np.exp(-0.06), rel=1e-12)

    def test_coverage_gap_detected(self):
        with pytest.raises(ValueError, match="coverage gap"):
            gauge_discount(np.zeros(10), np.zeros(8), 0.0, 1.0)


class TestForwardTranslate:
    def test_quantity_translation(self):
        s = np.array([2.0, 2.5, 4.0])
        # n0 s(0) = nT s(T): 10 units at price 2 become 5 units at price 4
        assert forward_translate(10.0, s) == pytest.approx(5.0)

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError, match="positive"):
            forward_translate(1.0, np.array([1.0, 0.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, -1])
    def test_rejects_nonfinite_prices(self, bad, at):
        s = np.ones(2)
        s[at] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            forward_translate(1.0, s)


class TestRollingDriftVol:
    def test_exponential_growth_recovered_exactly(self):
        grid = TimeGrid(1.0 / 252, 300)
        values = np.exp(0.04 * grid.points())
        mu, sigma = rolling_drift_vol(values, grid.dt, window=63)
        np.testing.assert_allclose(mu, 0.04, rtol=1e-8)
        np.testing.assert_allclose(sigma, 0.0, atol=1e-9)

    def test_output_covers_every_interval(self):
        values = np.linspace(1.0, 2.0, 100)
        mu, sigma = rolling_drift_vol(values, 0.01, window=20)
        assert mu.shape == sigma.shape == (99,)


class TestEmpiricalPipeline:
    def test_flat_market_is_trivial(self):
        grid = TimeGrid(1.0 / 252, 100)
        prices = np.ones((grid.n_points, 4))
        panel = PricePanel(grid=grid, prices=prices, asset_ids=("A", "B", "C", "D#cash"))
        report = empirical_pipeline(panel)
        np.testing.assert_allclose(report.final_values, 1.0, atol=1e-14)
        assert report.metadata["cash_discount_windowed"] == pytest.approx(1.0, abs=1e-12)
        assert report.asset_ids[-1] == "risk-free portfolio"

    def test_fixture_regression(self, fixture_panel):
        # frozen outputs of the seeded two-year fixture panel
        report = empirical_pipeline(fixture_panel)
        by_label = dict(zip(report.asset_ids, report.final_values))
        assert by_label["risk-free portfolio"] == 1.0
        assert by_label["EM Stock"] == pytest.approx(1.3504958070701585, rel=1e-10)
        assert by_label["USD#cash"] == pytest.approx(0.8631345390058819, rel=1e-10)
        assert by_label["Broad Bond"] == pytest.approx(1.0894360366447482, rel=1e-10)
        # the windowed rate estimate should land near the realized cash value
        assert report.metadata["cash_discount_windowed"] == pytest.approx(
            by_label["USD#cash"], rel=5e-3
        )

    def test_table_rendering(self, fixture_panel):
        table = empirical_pipeline(fixture_panel).as_table()
        assert table.splitlines()[0] == "Final Asset Values"
        assert any("risk-free portfolio" in line for line in table.splitlines())

    def test_reports_the_window_it_used(self):
        # 40 intervals: a 63-step window spans the panel, so 40 is the window used
        grid = TimeGrid(1.0 / 252, 40)
        prices = np.exp(0.01 * np.arange(grid.n_points))[:, None] ** np.array([1.0, 2.0, 0.5])
        panel = PricePanel(grid=grid, prices=prices, asset_ids=("A", "B", "C#cash"))
        short = empirical_pipeline(panel, window=63)
        assert short.metadata["window"] == 40
        assert empirical_pipeline(panel, window=40).metadata == short.metadata
        assert empirical_pipeline(panel, window=20).metadata["window"] == 20

    def test_requires_normalized_panel(self):
        grid = TimeGrid(0.01, 10)
        prices = np.full((grid.n_points, 2), 2.0)
        panel = PricePanel(grid=grid, prices=prices, asset_ids=("A", "B#cash"))
        with pytest.raises(ValueError, match="normalize"):
            empirical_pipeline(panel)

    def test_requires_exactly_one_cash_column(self):
        grid = TimeGrid(0.01, 10)
        prices = np.ones((grid.n_points, 2))
        panel = PricePanel(grid=grid, prices=prices, asset_ids=("A", "B"))
        with pytest.raises(ValueError, match="#cash"):
            empirical_pipeline(panel)
        assert find_cash_column(("A", "B#cash")) == 1


class TestCashValueSeries:
    """The cash column in risk-free units, as the pipeline reports it."""

    def test_starts_at_one(self, fixture_panel):
        series = empirical_pipeline(fixture_panel).cash_series
        assert series.values[0] == pytest.approx(1.0, abs=1e-14)
        assert series.times.shape == series.values.shape
        assert "#cash" in series.label

    def test_matches_pipeline_final_value(self, fixture_panel):
        report = empirical_pipeline(fixture_panel)
        series = report.cash_series
        cash_final = dict(zip(report.asset_ids, report.final_values))["USD#cash"]
        assert series.values[-1] == pytest.approx(cash_final, rel=1e-12)
        # cash over the equal-weight portfolio of the other columns, rebalanced every step
        prices = fixture_panel.prices
        gross = np.mean(prices[1:, :-1] / prices[:-1, :-1], axis=1)
        riskfree = np.concatenate([[1.0], np.cumprod(gross)])
        np.testing.assert_allclose(series.values, prices[:, -1] / riskfree, rtol=1e-12)


class TestReportTypes:
    def test_nonpositive_discount_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DiscountReport(asset_ids=("A",), final_values=np.array([-0.5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_discount_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            DiscountReport(asset_ids=("A", "B"), final_values=np.array([1.0, bad]))
