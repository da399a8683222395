import numpy as np
import pytest

from gaugeport import (
    GaugeFieldA,
    GaugeScalar,
    PricePanel,
    TimeGrid,
    empirical_pipeline,
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
        assert textbook_discount(TimeGrid(10.0, 1), 0.0406) == pytest.approx(0.666, abs=1e-3)

    def test_constant_rate_closed_form(self):
        assert textbook_discount(TimeGrid(20.0, 1), 0.05) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_step_rate_series(self):
        # r = 2% for the first half, 6% for the second: same as 4% flat
        r = np.concatenate([np.full(50, 0.02), np.full(50, 0.06)])
        assert textbook_discount(TimeGrid(0.1, 100), r) == pytest.approx(np.exp(-0.4), rel=1e-12)

    def test_rejects_bad_horizon(self):
        # the horizon is the grid's: TimeGrid rejects it before any discounting
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            textbook_discount(TimeGrid(0.0, 1), 0.05)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize(
        "discount",
        [
            lambda T: textbook_discount(TimeGrid(T, 1), 0.05),
            lambda T: gauge_discount(TimeGrid(T, 1), 0.05, 0.2, 0.0),
        ],
        ids=["textbook", "gauge"],
    )
    def test_horizon_must_be_positive_and_finite(self, discount, horizon):
        # nan gave nan, and inf gave 0.0, a discount factor with no horizon
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            discount(horizon)

    def test_integrates_with_the_grids_dt(self):
        # here horizon / steps != dt in the last bit; rates this large carry
        # that bit into both factors, which must use dt itself
        grid = TimeGrid(1.0 / 365.25, 13)
        other_dt = grid.horizon / grid.steps
        assert other_dt != grid.dt
        r = np.random.default_rng(19).normal(200.0, 50.0, grid.steps)
        assert textbook_discount(grid, r) == np.exp(-(np.sum(r) * grid.dt))
        assert textbook_discount(grid, r) != np.exp(-(np.sum(r) * other_dt))
        mu, sigma, a = r, np.full(grid.steps, 0.2), -0.5 * r
        exponent = np.sum(mu - 0.5 * sigma**2 + a)
        assert gauge_discount(grid, mu, sigma, a) == np.exp(exponent * grid.dt)
        assert gauge_discount(grid, mu, sigma, a) != np.exp(exponent * other_dt)

    def test_shift_moves_the_factor_by_the_phi_increment(self):
        grid = TimeGrid(1.0 / 365.25, 13)
        rng = np.random.default_rng(20)
        r = rng.normal(0.04, 0.02, grid.steps)
        phi = GaugeScalar(grid, rng.normal(0.0, 0.5, grid.n_points))
        moved = textbook_discount(grid, r - phi.rate())
        expected = textbook_discount(grid, r) * np.exp(phi.phi[-1] - phi.phi[0])
        assert moved == pytest.approx(expected, rel=1e-12)


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
            grid = TimeGrid(3.0 / n, n)
            base = gauge_discount(grid, mu, sigma, a)
            shifted = gauge_discount(grid, mu + shift, sigma, a - shift)
            assert shifted == pytest.approx(base, rel=1e-10)

    def test_textbook_factor_is_gauge_dependent(self):
        # under the same shift the textbook factor changes by exactly
        # exp(phi(0) - phi(T)): a non-invariance identity, not an error bound
        rng = np.random.default_rng(18)
        grid = TimeGrid(0.2, 25)
        r = rng.normal(0.04, 0.02, grid.steps)
        shift = rng.normal(0.0, 1.0, grid.steps)
        base = textbook_discount(grid, r)
        moved = textbook_discount(grid, r - shift)
        assert moved == pytest.approx(base * np.exp(np.sum(shift) * grid.dt), rel=1e-12)

    def test_reduces_to_textbook_for_constant_claim(self):
        # a constant-price claim (mu = sigma = 0) in the A = -r gauge
        grid = TimeGrid(10.0, 1)
        assert gauge_discount(grid, 0.0, 0.0, -0.0406) == pytest.approx(
            textbook_discount(grid, 0.0406), rel=1e-14
        )

    def test_accepts_gauge_field_object(self):
        grid = TimeGrid(0.5, 4)
        a = GaugeFieldA(grid, np.full(4, -0.03))
        # a field's rates live on its own grid
        assert gauge_discount(a.grid, 0.0, 0.0, a.a) == pytest.approx(np.exp(-0.06), rel=1e-12)

    def test_coverage_gap_detected(self):
        with pytest.raises(ValueError, match="coverage gap"):
            gauge_discount(TimeGrid(0.1, 10), np.zeros(10), np.zeros(8), 0.0)


class TestRollingDriftVol:
    def test_exponential_growth_recovered_exactly(self):
        grid = TimeGrid(1.0 / 252, 300)
        values = np.exp(0.04 * grid.points())
        mu, sigma = rolling_drift_vol(grid, values, window=63)
        np.testing.assert_allclose(mu, 0.04, rtol=1e-8)
        np.testing.assert_allclose(sigma, 0.0, atol=1e-9)

    def test_output_covers_every_interval(self):
        values = np.linspace(1.0, 2.0, 100)
        mu, sigma = rolling_drift_vol(TimeGrid(0.01, 99), values, window=20)
        assert mu.shape == sigma.shape == (99,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values",
        [
            # a zero price gave -inf log-returns with numpy warnings
            [1.0, 0.0, 1.0, 2.0],
            [1.0, -1.0, 1.0, 2.0],
            [1.0, np.nan, 1.0, 2.0],
            [1.0, np.inf, 1.0, 2.0],
            # one value short of the grid was accepted without a word
            [1.0, 1.5, 2.0],
            [[1.0, 1.5, 2.0, 2.5]],
        ],
        ids=["zero", "negative", "nan", "inf", "short", "2-d"],
    )
    def test_rejects_values_off_the_grid(self, values):
        with pytest.raises(ValueError, match="^values must hold one finite, positive value per grid point$"):
            rolling_drift_vol(TimeGrid(0.1, 3), np.array(values), 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("window", [0, -2])
    def test_rejects_a_window_below_one(self, window):
        # an empty window gave all-NaN estimates with numpy warnings
        with pytest.raises(ValueError, match=f"^window must be >= 1, got {window}$"):
            rolling_drift_vol(TimeGrid(0.1, 3), np.array([1.0, 1.1, 1.2, 1.3]), window)

    @pytest.mark.parametrize("steps, window", [(40, 2), (100, 7), (315, 63), (30, 63), (1, 5)])
    def test_matches_the_per_step_estimates(self, steps, window):
        # each interval's estimate is that of its trailing window, or of the
        # first window before one is full
        grid = TimeGrid(0.01, steps)
        values = np.exp(np.cumsum(np.random.default_rng(steps).normal(0.0, 0.01, steps + 1)))
        mu, sigma = rolling_drift_vol(grid, values, window)
        logret = np.diff(np.log(values))
        for k in range(steps):
            chunk = logret[k + 1 - window : k + 1] if k + 1 >= window else logret[:window]
            assert sigma[k] == pytest.approx(np.std(chunk) / np.sqrt(grid.dt), rel=1e-12, abs=1e-15)
            assert mu[k] == pytest.approx(np.mean(chunk) / grid.dt + 0.5 * sigma[k] ** 2, rel=1e-12, abs=1e-12)


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
        report = empirical_pipeline(fixture_panel)
        assert report.cash_values[0] == pytest.approx(1.0, abs=1e-14)
        assert report.cash_values.shape == (fixture_panel.grid.n_points,)
        assert report.metadata["cash_label"].endswith("#cash")

    def test_matches_pipeline_final_value(self, fixture_panel):
        report = empirical_pipeline(fixture_panel)
        cash_final = dict(zip(report.asset_ids, report.final_values))["USD#cash"]
        assert report.cash_values[-1] == pytest.approx(cash_final, rel=1e-12)
        # cash over the equal-weight portfolio of the other columns, rebalanced every step
        prices = fixture_panel.prices
        gross = np.mean(prices[1:, :-1] / prices[:-1, :-1], axis=1)
        riskfree = np.concatenate([[1.0], np.cumprod(gross)])
        np.testing.assert_allclose(report.cash_values, prices[:, -1] / riskfree, rtol=1e-12)


class TestReportTypes:
    def test_nonpositive_discount_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DiscountReport(asset_ids=("A",), final_values=np.array([-0.5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_discount_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            DiscountReport(asset_ids=("A", "B"), final_values=np.array([1.0, bad]))
