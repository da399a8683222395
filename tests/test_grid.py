import re

import numpy as np
import pytest

from gaugeport import PdeProblem, TimeGrid
from gaugeport.pricer import log_price_grid


class TestTimeGrid:
    @pytest.mark.parametrize(
        "dt, steps, message",
        [
            (0.0, 4, "^dt must be positive and finite"),
            (-0.1, 4, "^dt must be positive and finite"),
            # NaN fails no "<= 0" test: both gave a grid of NaN or inf points
            (np.nan, 4, "^dt must be positive and finite"),
            (np.inf, 4, "^dt must be positive and finite"),
            (0.1, 0, "^steps must be >= 1"),
            # a float step count was accepted: n_points read 3.5 while points() held 4
            (0.1, 2.5, "^steps must be an integer"),
            (0.1, 2.0, "^steps must be an integer"),
            # a horizon of inf was accepted, and points() overflowed with a warning
            (1e308, 10, "^horizon steps \\* dt must be finite, got 10 \\* 1e\\+308$"),
            (1e308, 2, "^horizon steps \\* dt must be finite"),
            (1e300, 10**9, "^horizon steps \\* dt must be finite"),
        ],
    )
    def test_rejects_bad_dt_and_steps(self, dt, steps, message):
        with pytest.raises(ValueError, match=message):
            TimeGrid(dt, steps)

    def test_integer_like_steps_become_int(self):
        grid = TimeGrid(0.1, np.int64(3))
        assert type(grid.steps) is int
        assert grid == TimeGrid(0.1, 3)

    @pytest.mark.parametrize("steps", [2**1023 + 1, 10**400], ids=["2^1023+1", "10^400"])
    def test_steps_without_a_float_rejected(self, steps):
        # steps * dt raised OverflowError: the count does not convert to a float
        with pytest.raises(ValueError, match="^horizon steps \\* dt must be finite"):
            TimeGrid(1e-320, steps)

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_horizon_is_kept(self):
        grid = TimeGrid(1e308, 1)
        assert grid.horizon == 1e308
        np.testing.assert_array_equal(grid.points(), [0.0, 1e308])


# horizon / steps differs from dt in its last bit on the first grid only
GRIDS = [TimeGrid(1.0 / 365.25, 13), TimeGrid(1.0 / 252, 40), TimeGrid(0.25, 8)]


class TestRuleOfTime:
    """rate, integral and per_interval are the formulas they replaced, bit for bit."""

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_rate_is_the_forward_difference(self, grid):
        rng = np.random.default_rng(grid.steps)
        series = rng.normal(size=grid.n_points)
        panel = rng.normal(size=(grid.n_points, 3))
        np.testing.assert_array_equal(grid.rate(series), np.diff(series) / grid.dt)
        np.testing.assert_array_equal(grid.rate(panel), np.diff(panel, axis=0) / grid.dt)
        # integers are differenced as floats
        np.testing.assert_array_equal(grid.rate(np.arange(grid.n_points)), np.full(grid.steps, 1.0 / grid.dt))

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_integral_is_sum_times_dt(self, grid):
        rates = np.random.default_rng(grid.steps).normal(size=grid.steps)
        total = grid.integral(rates)
        assert type(total) is float
        assert total == np.sum(rates) * grid.dt

    def test_integral_uses_dt_not_horizon_over_steps(self):
        grid = TimeGrid(1.0 / 365.25, 13)
        rates = np.random.default_rng(19).normal(200.0, 50.0, grid.steps)
        assert grid.integral(rates) != np.sum(rates) * (grid.horizon / grid.steps)

    def test_per_interval_broadcasts_a_scalar(self):
        grid = TimeGrid(0.1, 4)
        out = grid.per_interval(0.05, "r")
        np.testing.assert_array_equal(out, np.full(4, 0.05))
        assert out.dtype == float and out.shape == (4,)

    def test_per_interval_returns_a_new_array(self):
        grid = TimeGrid(0.1, 4)
        series = np.array([1.0, 2.0, 3.0, 4.0])
        out = grid.per_interval(series, "r")
        np.testing.assert_array_equal(out, series)
        out[0] = 9.0
        assert series[0] == 1.0

    @pytest.mark.parametrize("value", [np.zeros(3), np.zeros(5), np.zeros(1), np.zeros((4, 1))])
    def test_per_interval_coverage_gap(self, value):
        # an array of more than one dimension is named by its shape, not shape[0]
        found = f"{value.size} values" if value.ndim == 1 else f"shape {value.shape}"
        with pytest.raises(ValueError, match=f"^coverage gap: r has {re.escape(found)} for 4 intervals$"):
            TimeGrid(0.1, 4).per_interval(value, "r")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_series", [False, True], ids=["scalar", "series"])
    def test_per_interval_must_be_finite(self, bad, as_series):
        value = np.array([0.0, bad, 0.0, 0.0]) if as_series else bad
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            TimeGrid(0.1, 4).per_interval(value, "sigma")

    def test_pde_problem_reports_a_coverage_gap(self):
        # a wrong-length sigma gave numpy's broadcast error, naming no field
        with pytest.raises(ValueError, match="^coverage gap: sigma has 99 values for 100 intervals$"):
            PdeProblem(
                s_grid=log_price_grid(100.0, 200), t_grid=TimeGrid(0.01, 100),
                sigma=np.full(99, 0.2), payoff=lambda sg: sg,
            )
