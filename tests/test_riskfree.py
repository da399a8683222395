import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaugeport import (
    PricePanel,
    SensitivityProblem,
    TimeGrid,
    TradeUnitMap,
    WeightVector,
    apply_trade_unit_gauge,
    balance_residuals,
    constant_spec,
    extract_market_gauge,
    real_return,
    sensitivity_neutral_weights,
    simulate,
    to_riskfree_units,
    transform_gauge_b,
)
from gaugeport import riskfree
from gaugeport.riskfree import (
    _prefix_log_return_moments,
    project_capped_simplex,
    projected_gradient,
    rebalanced_quantities,
    riskfree_studies,
)
from gaugeport.sim import EnvironmentSeries, StepKernel, block_paths, noise_block, noise_stream

GRID = TimeGrid(dt=0.01, steps=50)


def lp_minimum(c: np.ndarray, cap: float) -> float:
    """min <c, s> over {sum s = 1, 0 <= s <= cap}, solved by HiGHS.

    HiGHS's default feasibility tolerances (1e-7) let it stop at a vertex
    that is worse by up to about 1e-8 when entries of c nearly tie, so they
    are tightened to the smallest values it accepts.
    """
    from scipy.optimize import linprog

    tol = {"dual_feasibility_tolerance": 1e-10, "primal_feasibility_tolerance": 1e-10}
    lp = linprog(c, A_eq=np.ones((1, c.size)), b_eq=[1.0], bounds=(0.0, cap), method="highs", options=tol)
    assert lp.status == 0, lp.message
    return float(lp.fun)


def philox_gradients(n: int, k: int, seed: int) -> np.ndarray:
    """The gradient draw of ``gaugeport sensitivity`` at this seed."""
    return np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((n, k))


def random_panel(n_assets: int, seed: int, grid: TimeGrid = GRID) -> PricePanel:
    spec = constant_spec(n_assets, 0.05, 0.2)
    env = EnvironmentSeries.constant(grid)
    paths = simulate(spec, env, grid, n_paths=1, seed=seed)
    return PricePanel(grid=grid, prices=paths.paths[0])


class TestWeightVector:
    def test_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightVector(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weights_rejected(self, bad):
        # abs(nan - 1) > tol is False, so the sum check alone let a NaN through
        with pytest.raises(ValueError, match="^weights must be finite"):
            WeightVector(np.array([0.5, bad, 0.5]))

    def test_equal_weights(self):
        w = WeightVector.equal(5)
        np.testing.assert_allclose(w.w, 0.2)
        w.require_riskfree()

    def test_riskfree_needs_positive_weights(self):
        w = WeightVector(np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="positive"):
            w.require_riskfree()

    def test_riskfree_cap(self):
        # one concentrated weight above c/N fails the dilution requirement
        w = WeightVector(np.concatenate([[0.6], np.full(9, 0.4 / 9)]))
        with pytest.raises(ValueError, match="max weight"):
            w.require_riskfree()
        WeightVector.equal(10).require_riskfree()


class TestPriceInsensitivity:
    def test_residual_of_cash_portfolio_scales_as_one_over_n(self):
        # equal-weight portfolio of the assets themselves: with identity
        # deltas the insensitivity residual_i = sum_alpha K^alpha dP_alpha/ds_i
        # is q_i, so sup_i |q| ~ 1/N and doubles back when N halves
        sups = []
        for n in (8, 16, 32, 64):
            q, _values = rebalanced_quantities(random_panel(n, seed=n), WeightVector.equal(n))
            sups.append(np.max(np.abs(q[0])))
        ratios = np.array(sups[:-1]) / np.array(sups[1:])
        assert np.all(ratios > 1.5) and np.all(ratios < 2.7)


class TestMarketGauge:
    def test_common_growth_gives_constant_gauge(self):
        g = 0.07
        prices = np.exp(g * GRID.points())[:, None] * np.array([[1.0, 2.0, 0.5]])
        panel = PricePanel(grid=GRID, prices=prices)
        result = extract_market_gauge(panel, WeightVector.equal(3))
        np.testing.assert_allclose(result.a.a, -g, rtol=1e-10)
        # constant weights on proportional prices mean constant holdings
        np.testing.assert_allclose(result.b.diag, 0.0, atol=1e-10)

    def test_b_diag_is_q_dot_over_q(self):
        panel = random_panel(5, seed=6)
        result = extract_market_gauge(panel, WeightVector.equal(5))
        q = result.quantities
        assert result.b.diag.shape == (GRID.steps, 5)
        assert q.shape == panel.prices.shape and result.portfolio_value_series[0] == 1.0
        assert np.array_equal(result.b.diag, np.diff(q, axis=0) / GRID.dt / q[:-1])

    def test_peak_memory_is_a_few_steps_by_n_arrays(self):
        # 401 dates x 256 assets: a dense [steps, N, N] B_N alone would be 210 MB
        grid = TimeGrid(dt=1.0 / 252, steps=400)
        panel = random_panel(256, seed=7, grid=grid)
        weights = WeightVector.equal(256)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            extract_market_gauge(panel, weights)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grid.steps * panel.n_assets * 8

    def test_riskfree_units_round_trip(self):
        # re-extracting the gauge in risk-free units gives A' = 0 exactly
        panel = random_panel(6, seed=3)
        w = WeightVector.equal(6)
        result = extract_market_gauge(panel, w)
        primed = to_riskfree_units(panel, result.portfolio_value_series)
        result2 = extract_market_gauge(primed, w)
        np.testing.assert_allclose(result2.a.a, 0.0, atol=1e-12)
        np.testing.assert_allclose(result2.portfolio_value_series, 1.0, rtol=1e-13)

    def test_riskfree_portfolio_has_zero_real_return(self):
        panel = random_panel(5, seed=4)
        result = extract_market_gauge(panel, WeightVector.equal(5))
        rr = real_return(GRID, result.portfolio_value_series, result.a)
        np.testing.assert_allclose(rr, 0.0, atol=1e-12)

    def test_balance_residuals_vanish(self):
        panel = random_panel(5, seed=5)
        result = extract_market_gauge(panel, WeightVector.equal(5))
        r_const, r_self = balance_residuals(panel, result)
        scale = np.max(result.portfolio_value_series) / GRID.dt
        np.testing.assert_allclose(r_const, 0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(r_self, 0.0, atol=1e-12 * scale)

    def test_balance_residuals_vanish_in_any_trade_units(self):
        # C08's panel, re-expressed in time-varying per-asset trade units:
        # q' = b q, s' = s / b and B' from transform_gauge_b keep both
        # balances at round-off
        grid = TimeGrid(0.01, 100)
        paths = simulate(constant_spec(8, 0.05, 0.2), EnvironmentSeries.constant(grid), grid, 1, seed=505)
        panel = PricePanel(grid=grid, prices=paths.paths[0])
        result = extract_market_gauge(panel, WeightVector.equal(8))
        c = np.random.default_rng(505).normal(size=8)
        bmap = TradeUnitMap(grid, np.exp(np.sin(3.0 * grid.points())[:, None] * c))
        primed = apply_trade_unit_gauge(replace(panel, quantities=result.quantities), bmap)
        primed_result = replace(
            result, b=transform_gauge_b(result.b, bmap), quantities=primed.quantities
        )
        r_const, r_self = balance_residuals(primed, primed_result)
        scale = np.max(result.portfolio_value_series) / grid.dt
        worst = max(np.max(np.abs(r_const)), np.max(np.abs(r_self))) / scale
        assert worst <= 1e-12

    def test_riskfree_series_must_be_positive(self):
        panel = random_panel(2, seed=6)
        bad = np.ones(GRID.n_points)
        bad[3] = -1.0
        with pytest.raises(ValueError, match="positive"):
            to_riskfree_units(panel, bad)


class TestConvergenceStudy:
    GRID8 = TimeGrid(dt=1.0 / 64, steps=8)

    def test_equal_vol_slope_is_minus_half(self):
        spec = constant_spec(64, 0.05, 0.25)
        env = EnvironmentSeries.constant(self.GRID8)
        report = riskfree_studies(
            spec, env, self.GRID8, WeightVector.equal(64), [8, 16, 32, 64], 2000, seed=10
        )
        # sigma_hat = sigma / sqrt(N) exactly, so the analytic fit is exact
        assert report.analytic_slope == pytest.approx(-0.5, abs=1e-12)
        np.testing.assert_allclose(
            report.analytic_sigma_hats, 0.25 / np.sqrt([8, 16, 32, 64]), rtol=1e-12
        )
        assert -0.6 < report.slope < -0.4
        # realized estimates near their analytic targets
        np.testing.assert_allclose(report.sigma_hats, report.analytic_sigma_hats, rtol=0.1)

    def test_thread_count_does_not_change_report(self):
        spec = constant_spec(32, np.linspace(0.0, 0.1, 32), 0.25)
        env = EnvironmentSeries.constant(self.GRID8)
        w = WeightVector.equal(32)
        runs = [
            riskfree_studies(spec, env, self.GRID8, w, [4, 8, 16, 32], 1100, seed=3, n_jobs=jobs)
            for jobs in (1, 2)
        ]
        for report in runs[1:]:
            assert np.array_equal(report.sigma_hats, runs[0].sigma_hats)
            assert report.slope == runs[0].slope

    def test_size_validation(self):
        spec = constant_spec(16, 0.05, 0.25)
        env = EnvironmentSeries.constant(self.GRID8)
        w = WeightVector.equal(16)
        with pytest.raises(ValueError, match="increasing"):
            riskfree_studies(spec, env, self.GRID8, w, [8, 8, 12, 16], 100, seed=0)
        with pytest.raises(ValueError, match="at least 4"):
            riskfree_studies(spec, env, self.GRID8, w, [4, 8, 16], 100, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            riskfree_studies(spec, env, self.GRID8, w, [4, 8, 16, 32], 100, seed=0)


class TestEtemadi:
    GRID8 = TimeGrid(dt=1.0 / 64, steps=8)

    def test_identical_weights_have_zero_divergence(self):
        spec = constant_spec(16, 0.05, 0.2)
        env = EnvironmentSeries.constant(self.GRID8)
        w = WeightVector.equal(16)
        report = riskfree_studies(spec, env, self.GRID8, w, [2, 4, 8, 16], 500, seed=1)
        np.testing.assert_allclose(report.divergences, 0.0, atol=1e-15)

    def test_divergence_decays_with_universe_size(self):
        n = 256
        mu = np.linspace(0.0, 0.1, n)
        spec = constant_spec(n, mu, 0.2)
        env = EnvironmentSeries.constant(self.GRID8)
        rng = np.random.default_rng(7)
        wb = rng.uniform(0.5, 1.5, n)
        report = riskfree_studies(
            spec, env, self.GRID8, WeightVector(wb / wb.sum()), [4, 16, 64, 256], 2000, seed=2
        )
        assert report.divergences[-1] < report.divergences[0]

    def test_thread_count_does_not_change_divergences(self):
        n = 32
        spec = constant_spec(n, np.linspace(0.0, 0.1, n), 0.2)
        env = EnvironmentSeries.constant(self.GRID8)
        wb = np.random.default_rng(5).uniform(0.5, 1.5, n)
        args = (spec, env, self.GRID8, WeightVector(wb / wb.sum()), [4, 8, 16, 32], 1100)
        a = riskfree_studies(*args, seed=2, n_jobs=1)
        b = riskfree_studies(*args, seed=2, n_jobs=2)
        assert np.array_equal(a.divergences, b.divergences)

    def test_sizes_must_be_positive(self):
        spec = constant_spec(16, 0.05, 0.2)
        env = EnvironmentSeries.constant(self.GRID8)
        w = WeightVector.equal(16)
        with pytest.raises(ValueError, match="positive"):
            riskfree_studies(spec, env, self.GRID8, w, [0, 4, 8, 16], 100, seed=0)

    def test_sizes_must_increase(self):
        spec = constant_spec(16, 0.05, 0.2)
        env = EnvironmentSeries.constant(self.GRID8)
        w = WeightVector.equal(16)
        for sizes in ([4, 8, 8, 16], [16, 8, 4, 2]):
            with pytest.raises(ValueError, match="increasing"):
                riskfree_studies(spec, env, self.GRID8, w, sizes, 100, seed=0)
        with pytest.raises(TypeError, match="integer"):
            riskfree_studies(spec, env, self.GRID8, w, [2, 4.0, 8, 16], 100, seed=0)

    def test_needs_a_path(self):
        spec = constant_spec(16, 0.05, 0.2)
        env = EnvironmentSeries.constant(self.GRID8)
        w = WeightVector.equal(16)
        with pytest.raises(ValueError, match="n_paths"):
            riskfree_studies(spec, env, self.GRID8, w, [2, 4, 8, 16], 0, seed=0)

    def test_short_positions_rejected(self):
        spec = constant_spec(4, 0.05, 0.2)
        env = EnvironmentSeries.constant(self.GRID8)
        w = WeightVector(np.array([0.5, 0.5, 0.5, -0.5]))
        with pytest.raises(ValueError, match="positive"):
            riskfree_studies(spec, env, self.GRID8, w, [1, 2, 3, 4], 100, seed=0)


class TestSubBlockStreaming:
    """The studies stream key blocks of ~2^18 cells; the same bits at 1, 2 and 3 threads."""

    # 8 steps x 325 assets: 100-path key blocks, and a ragged 37-path last one
    GRID8 = TimeGrid(dt=1.0 / 64, steps=8)
    N = 325
    SIZES = [40, 80, 160, 325]
    N_PATHS = 537

    def runs(self, tag, w):
        assert block_paths(self.GRID8.steps, self.N) == 100
        env = EnvironmentSeries.constant(self.GRID8)
        spec = constant_spec(
            self.N, np.linspace(0.0, 0.1, self.N), np.linspace(0.1, 0.3, self.N), tag
        )
        serial, *threaded = (
            riskfree_studies(spec, env, self.GRID8, w, self.SIZES, self.N_PATHS, 4, n_jobs=n_jobs)
            for n_jobs in (1, 2, 3)
        )
        return serial, threaded

    @pytest.mark.parametrize("tag", ["normal", "uniform", "two-point"])
    def test_convergence_study(self, tag):
        serial, threaded = self.runs(tag, WeightVector.equal(self.N))
        for report in threaded:
            assert report.sigma_hats.tobytes() == serial.sigma_hats.tobytes()
            assert report.slope == serial.slope

    @pytest.mark.parametrize("tag", ["normal", "uniform", "two-point"])
    def test_etemadi_check(self, tag):
        wb = np.random.default_rng(6).uniform(0.5, 1.5, self.N)
        serial, threaded = self.runs(tag, WeightVector(wb / wb.sum()))
        for report in threaded:
            assert report.divergences.tobytes() == serial.divergences.tobytes()
            assert report.sigma_hats.tobytes() == serial.sigma_hats.tobytes()


class TestPrefixReduction:
    """The one-draw prefix reduction against a plain numpy re-computation."""

    # 8 steps x 325 assets: 100-path key blocks, and a ragged last block
    GRID8 = TimeGrid(dt=1.0 / 64, steps=8)
    N = 325
    SIZES = (5, 40, 160, 325)
    N_PATHS = 537
    SEED = 9

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.spec = constant_spec(self.N, rng.uniform(0.0, 0.1, self.N), rng.uniform(0.1, 0.4, self.N))
        self.env = EnvironmentSeries.constant(self.GRID8)
        wb = rng.uniform(0.5, 1.5, self.N)
        self.weights = {"equal": np.full(self.N, 1.0 / self.N), "random": wb / wb.sum()}

    def reference_log_returns(self, w, spec=None):
        """Per-step log-returns [size, path, step] from each key block's noise and prefix gemv."""
        kernel = StepKernel.of(spec or self.spec, self.env, self.GRID8)
        out = []
        size = block_paths(self.GRID8.steps, self.N)
        for block, first in enumerate(range(0, self.N_PATHS, size)):
            paths = min(size, self.N_PATHS - first)
            shape = (paths, self.GRID8.steps, self.N)
            z = noise_block(noise_stream(self.SEED, block), "normal", np.empty(shape))
            ratios = np.exp(z * kernel.scale + kernel.drift)
            out.append([np.log(ratios[..., :n] @ (w[:n] / w[:n].sum())) for n in self.SIZES])
        return np.concatenate(out, axis=1)

    @pytest.mark.parametrize("name", ["equal", "random"])
    def test_sums_match_reference(self, name):
        w = self.weights[name]
        logret = self.reference_log_returns(w)
        total, m2 = _prefix_log_return_moments(
            self.spec, self.env, self.GRID8, [w], self.SIZES, self.N_PATHS, self.SEED, 2
        )
        np.testing.assert_allclose(total[0], logret.sum(axis=(1, 2)), rtol=1e-12)
        dev = logret - logret.mean(axis=(1, 2), keepdims=True)
        np.testing.assert_allclose(m2[0], (dev**2).sum(axis=(1, 2)), rtol=1e-12)

    def test_sigma_hats_keep_their_digits_under_a_large_drift(self):
        # a mean log-return of ~0.78 a step against a spread of 8e-5 (N = 325)
        # to 6e-4 (N = 5): E[x^2] - E[x]^2 cancels (0.78 / 8e-5)^2 ~ 1e8 of
        # E[x^2]'s 16 digits; the merged block moments keep them
        rng = np.random.default_rng(5)
        spec = constant_spec(self.N, 50.0 + rng.uniform(0.0, 1.0, self.N), 0.01)
        logret = self.reference_log_returns(self.weights["equal"], spec)
        expected = logret.reshape(len(self.SIZES), -1).std(axis=1) / np.sqrt(self.GRID8.dt)
        study = riskfree_studies(
            spec, self.env, self.GRID8, WeightVector.equal(self.N), self.SIZES, self.N_PATHS,
            self.SEED, n_jobs=2,
        )
        np.testing.assert_allclose(study.sigma_hats, expected, rtol=1e-12)
        # the one-pass formula on the same log-returns misses by far more
        flat = logret.reshape(len(self.SIZES), -1)
        one_pass = np.sqrt(np.mean(flat**2, axis=1) - np.mean(flat, axis=1) ** 2)
        assert np.max(np.abs(one_pass / np.sqrt(self.GRID8.dt) / expected - 1.0)) > 100 * 1e-12

    def test_studies_match_reference(self):
        equal = self.reference_log_returns(self.weights["equal"])
        random = self.reference_log_returns(self.weights["random"])
        sigma_hats = equal.reshape(len(self.SIZES), -1).std(axis=1) / np.sqrt(self.GRID8.dt)
        cum_equal = equal.sum(axis=(1, 2)) / self.N_PATHS
        cum_random = random.sum(axis=(1, 2)) / self.N_PATHS
        study = riskfree_studies(
            self.spec, self.env, self.GRID8, WeightVector(self.weights["random"]),
            self.SIZES, self.N_PATHS, self.SEED,
        )
        np.testing.assert_allclose(study.sigma_hats, sigma_hats, rtol=1e-12)
        # a divergence is a difference of two cumulative returns ~100x its
        # size, so it is held to 1e-12 of those returns, not of itself
        scale = np.maximum(np.abs(cum_equal), np.abs(cum_random))
        assert np.all(np.abs(study.divergences - np.abs(cum_equal - cum_random)) <= 1e-12 * scale)


def bisection_projection(v, cap):
    """Reference projection: 80 halvings of the bracket on the shift tau."""
    lo, hi = v.min() - cap - 1.0, v.max()
    for _ in range(80):
        tau = 0.5 * (lo + hi)
        if np.clip(v - tau, 0.0, cap).sum() > 1.0:
            lo = tau
        else:
            hi = tau
    return np.clip(v - 0.5 * (lo + hi), 0.0, cap)


def assert_single_shift(v, w, cap):
    """w = clip(v - tau, 0, cap) for one shift tau, and w sums to one."""
    atol = 4.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(v)))
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(w >= 0.0) and np.all(w <= cap)
    lo = np.max(v[w == 0.0], initial=-np.inf)  # tau >= v_i wherever w_i = 0
    hi = np.min(v[w == cap] - cap, initial=np.inf)  # tau <= v_i - cap wherever w_i = cap
    free = (w > 0.0) & (w < cap)
    if free.any():
        shifts = v[free] - w[free]
        assert np.ptp(shifts) <= atol
        lo = max(lo, shifts.max() - atol)
        hi = min(hi, shifts.min() + atol)
    assert lo <= hi + atol


class TestCappedSimplexProjection:
    @settings(max_examples=60, deadline=None)
    @given(
        v=arrays(np.float64, st.integers(3, 12),
                 elements=st.floats(-5, 5, allow_nan=False)),
        c=st.floats(1.1, 4.0),
    )
    def test_projection_is_feasible(self, v, c):
        cap = c / v.size
        w = project_capped_simplex(v, cap)
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w >= 0.0) and np.all(w <= cap + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        v=arrays(np.float64, 6, elements=st.floats(-3, 3, allow_nan=False)),
        c=st.floats(1.1, 4.0),
        u_seed=st.integers(0, 10_000),
    )
    def test_variational_inequality(self, v, c, u_seed):
        # (v - proj) . (u - proj) <= 0 for every feasible u characterizes
        # the Euclidean projection onto a convex set
        cap = c / v.size
        w = project_capped_simplex(v, cap)
        rng = np.random.default_rng(u_seed)
        u = project_capped_simplex(rng.uniform(-1, 1, v.size), cap)
        assert (v - w) @ (u - w) <= 1e-8

    def test_feasible_point_is_fixed(self):
        w = np.array([0.3, 0.3, 0.2, 0.2])
        np.testing.assert_allclose(project_capped_simplex(w, 0.5), w, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        v=arrays(np.float64, st.integers(1, 40),
                 elements=st.floats(-1e3, 1e3, allow_nan=False)),
        c=st.floats(1.0, 4.0),
    )
    def test_matches_bisection_reference(self, v, c):
        cap = max(c / v.size, 1.0 / v.size)
        expected = bisection_projection(v, cap)
        atol = 64 * np.finfo(float).eps * max(1.0, np.max(np.abs(v)))
        np.testing.assert_allclose(project_capped_simplex(v, cap), expected, rtol=0, atol=atol)

    def test_ties_share_one_weight(self):
        v = np.array([0.3, 0.3, 0.3, 0.1, 0.1, -0.2])
        w = project_capped_simplex(v, 0.3)
        assert_single_shift(v, w, 0.3)
        assert w[0] == w[1] == w[2] and w[3] == w[4]

    @pytest.mark.parametrize("n", [2, 3, 7, 10, 49, 64])
    def test_cap_times_n_one_forces_equal_weights(self, n):
        v = np.random.default_rng(n).standard_normal(n)
        w = project_capped_simplex(v, 1.0 / n)
        assert_single_shift(v, w, 1.0 / n)
        np.testing.assert_allclose(w, 1.0 / n, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("cap", [1.0, 2.5])
    def test_single_asset_takes_everything(self, cap):
        v = np.array([-3.7])
        w = project_capped_simplex(v, cap)
        assert_single_shift(v, w, cap)
        assert w[0] == 1.0

    def test_random_feasible_point_is_fixed(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.5, 1.5, 32)
        v /= v.sum()
        w = project_capped_simplex(v, 4.0 / 32)
        assert_single_shift(v, w, 4.0 / 32)
        np.testing.assert_allclose(w, v, rtol=0, atol=1e-16)

    def test_large_magnitude_input(self):
        # the shift tau lives on the ulp(1e8) = 2**-26 grid, so the weights
        # can sum to one exactly only when the free weights are multiples of
        # it: here two capped weights of 3/8 and one free weight of 1/4
        v = np.array([1e8 + 0.5, 1e8, 1e8 - 0.125, -2e8, 3e7, 1e8 - 7.0])
        w = project_capped_simplex(v, 0.375)
        assert_single_shift(v, w, 0.375)
        np.testing.assert_array_equal(w, [0.375, 0.375, 0.25, 0.0, 0.0, 0.0])


    @pytest.mark.parametrize("seed", range(5))
    def test_huge_inputs_still_sum_to_one(self, seed):
        # v - tau is rounded on the ulp(1e8) grid, about 1.5e-8 per weight
        v = 1e8 + np.random.default_rng(seed).uniform(0.0, 0.2, 16)
        cap = 4.0 / 16
        w = project_capped_simplex(v, cap)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0) and np.all(w <= cap)


class TestSensitivityNeutralWeights:
    def test_zero_gradient_keeps_equal_weights(self):
        problem = SensitivityProblem(np.zeros((8, 2)), cap=0.5)
        result = sensitivity_neutral_weights(problem)
        assert result.exact and result.residual == 0.0
        np.testing.assert_allclose(result.weights.w, 0.125, atol=1e-12)

    def test_centered_gradient_is_already_neutral(self):
        # columns summing to zero are orthogonal to equal weights
        rng = np.random.default_rng(0)
        g = rng.standard_normal((10, 2))
        g -= g.mean(axis=0)
        problem = SensitivityProblem(g, cap=0.4)
        result = sensitivity_neutral_weights(problem)
        assert result.residual < 1e-12

    def test_duality_gap_bounds_suboptimality(self):
        # f = residual^2 is convex, so the Frank-Wolfe gap certifies
        # f(w) - f* <= gap, hence residual - optimum <= min(residual, gap / residual)
        rng = np.random.default_rng(5)
        problem = SensitivityProblem(rng.standard_normal((6, 3)) + 0.3, cap=4.0 / 6)
        result = sensitivity_neutral_weights(problem)
        assert 0 < result.iterations <= riskfree.MAX_ITER
        assert result.duality_gap >= -1e-12
        assert min(result.residual, result.duality_gap / result.residual) <= 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_duality_gap_bounds_a_known_optimum(self, seed):
        # one positive factor: ||g^T w|| = g^T w, so the optimum is a linear program's
        g = np.random.default_rng(seed).uniform(0.5, 2.0, (20, 1))
        cap = 3.0 / 20
        optimum = lp_minimum(g[:, 0], cap)
        result = sensitivity_neutral_weights(SensitivityProblem(g, cap=cap))
        # up to rounding in the last place of each side
        assert result.residual**2 - optimum**2 <= result.duality_gap + 1e-12
        assert result.residual - optimum <= result.duality_gap / result.residual + 1e-12
        assert result.stop_reason == "gap" and result.duality_gap <= 1e-6 * result.residual

    @pytest.mark.parametrize(
        "g,cap",
        [
            (np.random.default_rng(5).standard_normal((6, 3)) + 0.3, 4.0 / 6),  # C10, neutral
            (philox_gradients(64, 3, 7), 4.0 / 64),  # the default run
            (philox_gradients(64, 32, 2), 2.0 / 64),  # the benchmark's fixed problem
            (philox_gradients(64, 3, 11), 3.0 / 64),  # 1 / cap = 21.33 is not an integer
            (philox_gradients(64, 32, 11), 3.0 / 64),
            (np.array([[1.0], [2.0], [3.0], [4.0]]), 0.5),  # optimum at a vertex
            (np.random.default_rng(0).standard_normal((10, 2)) + 0.2, 0.4),
            (np.random.default_rng(3).standard_normal((20, 5)) + 0.5, 2.0 / 20),
            (np.random.default_rng(4).standard_normal((30, 10)), 1.5 / 30),
            (np.random.default_rng(8).standard_normal((9, 8)) + 1.0, 2.5 / 9),  # 1 / cap = 3.6
        ],
        ids=["c10", "default", "fixed", "cap3-k3", "cap3-k32", "vertex", "10x2", "20x5", "30x10", "9x8"],
    )
    def test_duality_gap_matches_lp_reference(self, g, cap):
        # <grad f(w), w> - min_s <grad f(w), s>, with s solved by HiGHS instead
        # of the solver's partition of the gradient
        result = sensitivity_neutral_weights(SensitivityProblem(g, cap=cap))
        w = result.weights.w
        grad = 2.0 * g @ (g.T @ w)
        reference = float(grad @ w) - lp_minimum(grad, cap)
        # near an optimum the free weights' gradient entries nearly tie, and
        # HiGHS then solves only to its 1e-10 feasibility tolerance
        assert abs(result.duality_gap - reference) <= 1e-10 * max(1.0, np.abs(grad).max())

    def test_zero_gradient_needs_no_iterations(self):
        result = sensitivity_neutral_weights(SensitivityProblem(np.zeros((8, 2)), cap=0.5))
        assert result.iterations == 0 and result.duality_gap == 0.0
        assert result.stop_reason == "zero_gradient"

    def test_stops_on_residual_at_a_neutral_point(self):
        g = np.array([[1.0], [-1.0], [0.5], [-0.4]])
        result = sensitivity_neutral_weights(SensitivityProblem(g, cap=0.5))
        assert result.stop_reason == "residual"
        assert 0 < result.iterations < 2000 and result.residual < 1e-13

    def test_stops_on_move_at_a_vertex(self):
        # one positive factor: the optimum caps the two smallest gradients,
        # and the iterates reach it exactly; its duality gap certifies it one
        # iteration before the move test would stop the solve
        g = np.array([[1.0], [2.0], [3.0], [4.0]])
        result = sensitivity_neutral_weights(SensitivityProblem(g, cap=0.5))
        assert result.stop_reason == "gap"
        assert 0 < result.iterations < 2000 and not result.exact
        np.testing.assert_array_equal(result.weights.w, [0.5, 0.5, 0.0, 0.0])

    def test_stops_at_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(riskfree, "MAX_ITER", 3)
        g = np.random.default_rng(5).standard_normal((6, 3)) + 0.3
        w0 = np.full(6, 1.0 / 6)
        _w, iterations, reason = projected_gradient(g, w0, cap=4.0 / 6)
        assert (iterations, reason) == (3, "max_iter")

    def test_gap_stop_keeps_the_iterates(self, monkeypatch):
        # the benchmark's fixed problem stops on its gap; without the gap test
        # and capped at the same iteration, the solve returns the same bits
        g = philox_gradients(64, 32, 2)
        cap = 2.0 / 64
        w0 = np.full(64, 1.0 / 64)
        best, iterations, reason = projected_gradient(g, w0, cap)
        assert reason == "gap" and iterations < 1000
        monkeypatch.setattr(riskfree, "GAP_TOL", -np.inf)
        monkeypatch.setattr(riskfree, "MAX_ITER", iterations)
        capped, capped_iterations, capped_reason = projected_gradient(g, w0, cap)
        assert (capped_iterations, capped_reason) == (iterations, "max_iter")
        np.testing.assert_array_equal(capped, best)

    def test_matches_global_grid_oracle_small_n(self):
        # residual - optimum <= min(residual, gap / residual) is proven for any
        # convex f = residual^2, so no search for the optimum is needed
        rng = np.random.default_rng(5)
        problem = SensitivityProblem(rng.standard_normal((6, 3)) + 0.3, cap=4.0 / 6)
        result = sensitivity_neutral_weights(problem)
        assert min(result.residual, result.duality_gap / result.residual) <= 1e-6

    def test_large_universe_reaches_neutrality(self):
        rng = np.random.default_rng(6)
        n = 256
        problem = SensitivityProblem(rng.standard_normal((n, 3)) + 0.2, cap=4.0 / n)
        result = sensitivity_neutral_weights(problem)
        assert result.exact
        assert result.residual <= 1e-8
        w = result.weights.w
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w >= -1e-12) and np.all(w <= problem.cap + 1e-12)

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((12, 2))
        problem = SensitivityProblem(g, cap=0.5)
        start_res = float(np.linalg.norm(g.T @ np.full(12, 1.0 / 12)))
        result = sensitivity_neutral_weights(problem)
        assert result.residual <= start_res + 1e-15

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="n_factors < N"):
            SensitivityProblem(np.ones((3, 3)), cap=0.5)
        with pytest.raises(ValueError, match="n_factors < N"):
            # 1 asset x 5 factors is taken as given, not transposed
            SensitivityProblem(np.arange(1.0, 6.0)[None, :], cap=0.5)
        assert SensitivityProblem(np.arange(1.0, 6.0), cap=0.5).dmu_dxi.shape == (5, 1)
        with pytest.raises(ValueError, match=r"\[N, n_factors\]"):
            SensitivityProblem(np.ones((4, 1, 1)), cap=0.5)
        with pytest.raises(ValueError, match="infeasible"):
            SensitivityProblem(np.ones((4, 1)), cap=0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cap", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="need finite cap > 0"):
            SensitivityProblem(np.ones((4, 1)), cap=cap)
