import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeport import (
    TimeGrid,
    bs_closed_form,
    bs_closed_form_rate,
    constant_spec,
    merton_residual,
    simulate,
    solve_primed_gauge,
    solve_today,
    vanilla_problem,
)
from gaugeport.pricer import RANNACHER_STEPS, DegenerateProblem, PdeProblem, log_price_grid
from gaugeport.sim import EnvironmentSeries

STRIKE = 100.0
SIGMA = 0.2
TAU = 1.0

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


class TestClosedForms:
    def test_at_the_money_value(self):
        # ATM zero-rate call: 100 (2 Phi(0.1) - 1) = 7.9656
        assert bs_closed_form(100, 100, 0.2, 1.0) == pytest.approx(7.9656, abs=1e-3)

    def test_monte_carlo_agrees(self):
        # driftless log-normal terminal prices reproduce the zero-rate value
        grid = TimeGrid(1.0 / 64, 64)
        spec = constant_spec(1, 0.0, SIGMA)
        paths = simulate(spec, EnvironmentSeries.constant(grid), grid, 200_000, seed=55, s0=100.0)
        payoff = np.maximum(paths.paths[:, -1, 0] - STRIKE, 0.0)
        se = payoff.std(ddof=1) / np.sqrt(payoff.size)
        assert abs(payoff.mean() - bs_closed_form(100, 100, SIGMA, 1.0)) < 3 * se

    def test_expiry_and_zero_vol_give_intrinsic(self):
        assert bs_closed_form(110, 100, 0.2, 0.0) == 10.0
        assert bs_closed_form(90, 100, 0.0, 1.0) == 0.0
        assert bs_closed_form_rate(90, 100, 0.0, 1.0, 0.05) == pytest.approx(
            max(90 - 100 * np.exp(-0.05), 0.0)
        )

    def test_rate_form_reduces_to_zero_rate(self):
        assert bs_closed_form_rate(105, 100, 0.25, 0.7, 0.0) == pytest.approx(
            bs_closed_form(105, 100, 0.25, 0.7), rel=1e-14
        )


class TestPdeSolver:
    def test_matches_closed_form_at_the_money(self):
        today = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU))
        exact = bs_closed_form(STRIKE, STRIKE, SIGMA, TAU)
        assert abs(today.value_at(STRIKE) - exact) / exact < 1e-3

    def test_second_order_convergence(self):
        exact = bs_closed_form(STRIKE, STRIKE, SIGMA, TAU)
        errors = []
        for n in (200, 400, 800):
            today = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU, n_s=n, n_t=n))
            errors.append(abs(today.value_at(STRIKE) - exact))
        assert 3.0 < errors[0] / errors[1] < 5.0
        assert 3.0 < errors[1] / errors[2] < 5.0

    def test_constant_a_reduces_to_rate_equation(self):
        r = 0.05
        today = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=-r))
        exact = bs_closed_form_rate(STRIKE, STRIKE, SIGMA, TAU, r)
        assert abs(today.value_at(STRIKE) - exact) / exact < 1e-3

    def test_delta_matches_closed_form(self):
        from scipy.stats import norm

        today = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU))
        d1 = 0.5 * SIGMA * np.sqrt(TAU)
        assert today.delta_at(STRIKE) == pytest.approx(norm.cdf(d1), abs=1e-3)

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("a", [0.0, -0.05])
    @pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
    def test_ladder_within_1e_3(self, sigma, a, kind):
        today = solve_today(vanilla_problem(kind, STRIKE, sigma, TAU, a_field=a))
        r = -a  # A = -r is textbook pricing at rate r
        exact = bs_closed_form_rate(STRIKE, STRIKE, sigma, TAU, r)
        if kind == "put":
            exact += STRIKE * np.exp(-r * TAU) - STRIKE
        assert abs(today.value_at(STRIKE) - exact) / exact < 1e-3

    def test_grid_span_follows_sigma_and_a(self):
        # ln(span) = 8 sigma_max sqrt(tau) + int |A| dtau, clipped to [0.2, ln 8]
        sigma = np.full(400, 0.1)
        sigma[:100] = 0.15
        a_field = np.linspace(-0.05, 0.05, 400)
        s = vanilla_problem("call", STRIKE, sigma, TAU, a_field=a_field).s_grid
        span = np.exp(8.0 * 0.15 + np.sum(np.abs(a_field)) / 400)
        np.testing.assert_allclose([s[0], s[-1]], [STRIKE / span, STRIKE * span], rtol=1e-12)
        flat = vanilla_problem("put", STRIKE, 0.0, TAU).s_grid
        np.testing.assert_allclose(flat[-1] / flat[0], np.exp(0.4), rtol=1e-12)
        # 8 sigma sqrt(tau) >= ln 8: exactly the [K/8, 8K] grid
        wide = vanilla_problem("call", STRIKE, 0.4, TAU).s_grid
        assert np.array_equal(wide, log_price_grid(STRIKE, 400, 8.0))

    @pytest.mark.parametrize("fields", [{"b_scalar": 1e10}, {"a_field": 1e300}])
    @pytest.mark.parametrize("solve", [solve_today])
    def test_overflow_is_degenerate_without_warnings(self, solve, fields):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = vanilla_problem("call", STRIKE, SIGMA, TAU, **fields)
            with pytest.raises(DegenerateProblem, match="non-finite option values"):
                solve(problem)

    def test_put_call_parity_with_fields(self):
        a, b = -0.03, 0.05
        call = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=a, b_scalar=b))
        put = solve_today(vanilla_problem("put", STRIKE, SIGMA, TAU, a_field=a, b_scalar=b))
        s = call.s_grid
        parity = s * np.exp(b * TAU) - STRIKE * np.exp((a + b) * TAU)
        mask = (s > 40) & (s < 250)
        np.testing.assert_allclose(
            (call.values - put.values)[mask], parity[mask], atol=5e-4
        )


def banded_steps(problem):
    """Per time step from expiry back: k, the operator bands, the Dirichlet
    data, and a solve_banded of the rebuilt matrix I - (dt/2) L."""
    from scipy.linalg import solve_banded

    s = problem.s_grid
    dx = np.log(s)[1] - np.log(s)[0]
    dt, steps, n = problem.t_grid.dt, problem.t_grid.steps, s.size
    terminal = problem.payoff(s)
    int_b = np.concatenate([[0.0], np.cumsum((problem.b_scalar * dt)[::-1])])[::-1]
    int_ab = np.concatenate(
        [[0.0], np.cumsum(((problem.a_field + problem.b_scalar) * dt)[::-1])]
    )[::-1]
    for k in range(steps - 1, -1, -1):
        sig, a, b = problem.sigma[k], problem.a_field[k], problem.b_scalar[k]
        diff = 0.5 * sig**2 / dx**2
        conv = (0.5 * sig**2 + a) / (2.0 * dx)
        lower, diag, upper = diff + conv, -2.0 * diff + (a + b), diff - conv
        growth_s, growth_c = np.exp(int_b[k]), np.exp(int_ab[k])
        if problem.payoff_kind == "call":
            bc = (0.0, s[-1] * growth_s - problem.strike * growth_c)
        elif problem.payoff_kind == "put":
            bc = (problem.strike * growth_c - s[0] * growth_s, 0.0)
        else:
            bc = (terminal[0] * growth_s, terminal[-1] * growth_s)
        ab = np.zeros((3, n))
        ab[0, 2:] = -0.5 * dt * upper
        ab[1, 1:-1] = 1.0 - 0.5 * dt * diag
        ab[2, :-2] = -0.5 * dt * lower
        ab[1, 0] = ab[1, -1] = 1.0
        yield k, (lower, diag, upper), bc, lambda rhs, ab=ab: solve_banded((1, 1), ab, rhs)


def implicit_half_step(v, bc, solve):
    rhs = v.copy()
    rhs[0], rhs[-1] = bc
    return solve(rhs)


def grid_deltas(v, s):
    dx = np.log(s)[1] - np.log(s)[0]
    deltas = np.empty_like(v)
    deltas[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx) / s[1:-1]
    deltas[0] = (v[1] - v[0]) / (dx * s[0])
    deltas[-1] = (v[-1] - v[-2]) / (dx * s[-1])
    return deltas


def banded_reference(problem, rannacher_steps=2):
    """Per-step reference solve in the one-operator form of solve_today.

    Each Crank-Nicolson step is w = solve(I - hL, 2v), with ends bc + v, and
    then v = w - v with ends bc.  Returns today's values and deltas.
    """
    steps = problem.t_grid.steps
    v = problem.payoff(problem.s_grid).copy()
    for k, _, bc, solve in banded_steps(problem):
        if steps - 1 - k < rannacher_steps:
            v = implicit_half_step(implicit_half_step(v, bc, solve), bc, solve)
        else:
            rhs = 2.0 * v
            rhs[0], rhs[-1] = bc[0] + v[0], bc[1] + v[-1]
            v = solve(rhs) - v
            v[0], v[-1] = bc
    return v, grid_deltas(v, problem.s_grid)


def two_operator_reference(problem, rannacher_steps=2):
    """Per-step Crank-Nicolson solve in the two-operator form: the explicit
    half step (I + hL) v as a band product, then the implicit half step.

    An independent oracle for solve_today, which agrees with it to rounding.
    Returns today's values.
    """
    steps = problem.t_grid.steps
    dt = problem.t_grid.dt
    v = problem.payoff(problem.s_grid).copy()
    for k, (lower, diag, upper), bc, solve in banded_steps(problem):
        if steps - 1 - k < rannacher_steps:
            v = implicit_half_step(implicit_half_step(v, bc, solve), bc, solve)
        else:
            half = v.copy()
            half[1:-1] = v[1:-1] + 0.5 * dt * (lower * v[:-2] + diag * v[1:-1] + upper * v[2:])
            v = implicit_half_step(half, bc, solve)
    return v


def assert_matches_reference(problem):
    """solve_today's values and grid deltas equal banded_reference's, bit for bit."""
    values, deltas = banded_reference(problem)
    today = solve_today(problem)
    assert today.values.tobytes() == values.tobytes()
    assert np.array_equal([today.delta_at(s) for s in problem.s_grid], deltas)
    return today, values, deltas


class TestFactorOnceSolver:
    """The factor-once LAPACK solve reproduces the per-step banded solve bit for bit."""

    @pytest.mark.parametrize("kind", ["call", "put", "linear"])
    def test_per_interval_series_bit_identical(self, kind):
        # piecewise-constant coefficients: the solver must refactor exactly
        # where (sigma, A, B) changes between intervals
        steps = 120
        rng = np.random.default_rng(21)
        sigma = np.repeat(rng.uniform(0.1, 0.4, 6), steps // 6)
        a_field = np.repeat(rng.uniform(-0.1, 0.1, 4), steps // 4)
        b_scalar = np.repeat(rng.uniform(-0.02, 0.02, 3), steps // 3)
        payoffs = {
            "call": lambda sg: np.maximum(sg - STRIKE, 0.0),
            "put": lambda sg: np.maximum(STRIKE - sg, 0.0),
            "linear": lambda sg: 2.0 * sg,
        }
        problem = PdeProblem(
            s_grid=log_price_grid(STRIKE, 200), t_grid=TimeGrid(TAU / steps, steps),
            sigma=sigma, a_field=a_field, b_scalar=b_scalar, payoff=payoffs[kind],
            payoff_kind=kind, strike=None if kind == "linear" else STRIKE,
        )
        assert_matches_reference(problem)

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_default_grid_bit_identical(self, kind):
        problem = vanilla_problem(kind, STRIKE, 0.1, TAU, a_field=-0.05)
        assert_matches_reference(problem)


def per_interval_problem(kind, steps=120):
    """The piecewise-constant (sigma, A, B) problems of TestFactorOnceSolver."""
    rng = np.random.default_rng(21)

    def pieces(lo, hi, count):
        # as TestFactorOnceSolver's series at 120 steps; shorter grids keep the start
        return np.repeat(rng.uniform(lo, hi, count), -(-steps // count))[:steps]

    sigma = pieces(0.1, 0.4, 6)
    a_field = pieces(-0.1, 0.1, 4)
    b_scalar = pieces(-0.02, 0.02, 3)
    payoffs = {
        "call": lambda sg: np.maximum(sg - STRIKE, 0.0),
        "put": lambda sg: np.maximum(STRIKE - sg, 0.0),
        "linear": lambda sg: 2.0 * sg,
    }
    return PdeProblem(
        s_grid=log_price_grid(STRIKE, 200), t_grid=TimeGrid(TAU / steps, steps),
        sigma=sigma, a_field=a_field, b_scalar=b_scalar, payoff=payoffs[kind],
        payoff_kind=kind, strike=None if kind == "linear" else STRIKE,
    )


#: The benchmark's price ladder: (kind, strike, sigma, A, n_s = n_t).
LADDER = [
    (kind, strike, sigma, a, 400)
    for kind in ("call", "put")
    for strike in (80.0, 100.0, 125.0)
    for sigma in (0.1, 0.2, 0.4)
    for a in (0.0, -0.05)
] + [("call", 100.0, 0.1, 0.0, 1600), ("put", 100.0, 0.2, -0.05, 1600)]


class TestRollingSolve:
    """solve_today is today's row of banded_reference, bit for bit, in O(n_s) memory."""

    @staticmethod
    def assert_row_zero(problem):
        today, values, deltas = assert_matches_reference(problem)
        assert today.s_grid is problem.s_grid and today.t_grid is problem.t_grid
        assert today.values.shape == problem.s_grid.shape
        s_grid = problem.s_grid
        strike = problem.strike if problem.strike is not None else STRIKE
        for s in (strike, 0.97 * strike, 1.13 * strike, s_grid[0], s_grid[-1], 0.5 * s_grid[0]):
            assert today.value_at(s) == np.interp(s, s_grid, values)
            assert today.delta_at(s) == np.interp(s, s_grid, deltas)

    @pytest.mark.parametrize("kind", ["call", "put", "linear"])
    def test_per_interval_series(self, kind):
        self.assert_row_zero(per_interval_problem(kind))

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("a", [0.0, -0.05])
    def test_zero_sigma(self, kind, a):
        self.assert_row_zero(vanilla_problem(kind, STRIKE, 0.0, TAU, a_field=a, b_scalar=0.02))

    @pytest.mark.parametrize("kind", ["call", "put", "linear"])
    @pytest.mark.parametrize("n_t", [1, 2])
    def test_rannacher_steps_only(self, kind, n_t):
        self.assert_row_zero(per_interval_problem(kind, steps=n_t))

    @pytest.mark.parametrize("kind, strike, sigma, a, n", LADDER)
    def test_benchmark_ladder(self, kind, strike, sigma, a, n):
        self.assert_row_zero(vanilla_problem(kind, strike, sigma, TAU, a_field=a, n_s=n, n_t=n))

    @pytest.mark.parametrize("n_t", [1600, 3200])
    def test_holds_a_few_rows(self, n_t):
        # a 1600 x 1600 surface would be 1601 rows; the solve holds
        # two price rows plus per-step boundary data and LU factors
        problem = vanilla_problem("call", STRIKE, SIGMA, TAU, n_s=1600, n_t=n_t)
        solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU, n_s=10, n_t=2))  # imports scipy
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            today = solve_today(problem)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 64 * today.values.nbytes

    @pytest.mark.parametrize("steps", [2, 3, 120])
    def test_one_lapack_solve_per_step(self, monkeypatch, steps):
        # each Rannacher step is two implicit half steps, every later
        # Crank-Nicolson step one solve with the same LU factors
        import scipy.linalg.lapack

        calls = []
        dgttrs = scipy.linalg.lapack.dgttrs

        def counted(*args, **kwargs):
            calls.append(None)
            return dgttrs(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", counted)
        solve_today(per_interval_problem("call", steps=steps))
        assert len(calls) == steps + RANNACHER_STEPS


class TestTwoOperatorOracle:
    """solve_today agrees with the two-operator Crank-Nicolson step to rounding."""

    @staticmethod
    def assert_agrees(problem):
        # the forms differ by rounding only: at most 3.5e-11 absolute and
        # 2.5e-13 relative to max |V| on these problems
        values = two_operator_reference(problem)
        error = np.max(np.abs(solve_today(problem).values - values))
        assert error <= 1e-10
        assert error <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("kind", ["call", "put", "linear"])
    def test_per_interval_series(self, kind):
        self.assert_agrees(per_interval_problem(kind))

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("a", [0.0, -0.05])
    def test_zero_sigma(self, kind, a):
        self.assert_agrees(vanilla_problem(kind, STRIKE, 0.0, TAU, a_field=a, b_scalar=0.02))

    @pytest.mark.parametrize("kind, strike, sigma, a, n", LADDER)
    def test_benchmark_ladder(self, kind, strike, sigma, a, n):
        self.assert_agrees(vanilla_problem(kind, strike, sigma, TAU, a_field=a, n_s=n, n_t=n))


class TestLinearPayoffs:
    def test_forward_contract_no_fields_is_exact(self):
        # payoff 2s with sigma = a = b = 0 propagates unchanged
        problem = PdeProblem(
            s_grid=log_price_grid(STRIKE, 200), t_grid=TimeGrid(TAU / 100, 100),
            sigma=0.0, a_field=0.0, b_scalar=0.0,
            payoff=lambda s: 2.0 * s, payoff_kind="linear",
        )
        today = solve_today(problem)
        np.testing.assert_allclose(today.values, 2.0 * today.s_grid, rtol=1e-12)

    def test_unit_field_growth(self):
        # pure B field scales a linear payoff by exp(B tau)
        problem = PdeProblem(
            s_grid=log_price_grid(STRIKE, 400), t_grid=TimeGrid(TAU / 400, 400),
            sigma=0.0, a_field=0.0, b_scalar=0.1,
            payoff=lambda s: 2.0 * s, payoff_kind="linear",
        )
        today = solve_today(problem)
        target = 2.0 * np.exp(0.1 * TAU) * today.s_grid
        np.testing.assert_allclose(today.values, target, rtol=1e-6)

    def test_diffusion_leaves_linear_payoff_almost_fixed(self):
        problem = PdeProblem(
            s_grid=log_price_grid(STRIKE, 400), t_grid=TimeGrid(TAU / 400, 400),
            sigma=SIGMA, a_field=0.0, b_scalar=0.0,
            payoff=lambda s: 2.0 * s, payoff_kind="linear",
        )
        today = solve_today(problem)
        np.testing.assert_allclose(today.values, 2.0 * today.s_grid, rtol=1e-6)


class TestGaugeCovariance:
    def test_b_shift_rescales_values(self):
        # adding a constant rate c to B multiplies the values by e^{c (T-t)}
        c = 0.04
        base = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=-0.02))
        shifted = solve_today(
            vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=-0.02, b_scalar=c)
        )
        mask = (base.s_grid > 50) & (base.s_grid < 200)
        expected = np.exp(c * TAU) * base.values
        np.testing.assert_allclose(shifted.values[mask], expected[mask], rtol=1e-5)

    def test_price_rescaling_covariance(self):
        # rescaling prices by e^{c t} shifts A by -c and the strike by e^{c T};
        # today's values (where the rescaling factor is 1) must agree
        c = 0.04
        plain = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU))
        rescaled = solve_today(
            vanilla_problem("call", STRIKE * np.exp(c * TAU), SIGMA, TAU, a_field=-c)
        )
        for s in (80.0, 100.0, 120.0):
            exact = bs_closed_form(s, STRIKE, SIGMA, TAU)
            assert abs(plain.value_at(s) - rescaled.value_at(s)) < 1e-3 * max(exact, 1.0)


class TestPrimedGauge:
    def test_matches_bumped_closed_form(self):
        sigma_hat = 0.05
        problem = vanilla_problem("call", STRIKE, SIGMA, TAU)
        today = solve_primed_gauge(problem, sigma_hat=sigma_hat)
        combined = np.hypot(SIGMA, sigma_hat)
        exact = bs_closed_form(STRIKE, STRIKE, combined, TAU)
        assert abs(today.value_at(STRIKE) - exact) / exact < 1e-3

    def test_volatility_bump_raises_the_price(self):
        problem = vanilla_problem("call", STRIKE, SIGMA, TAU)
        plain = solve_primed_gauge(problem, sigma_hat=0.0)
        bumped = solve_primed_gauge(problem, sigma_hat=0.08)
        assert bumped.value_at(STRIKE) > plain.value_at(STRIKE)

    def test_forces_zero_a_field(self):
        # identical to a zero-rate solve even when the input problem has A != 0
        problem = vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=-0.05)
        today = solve_primed_gauge(problem, sigma_hat=0.0)
        exact = bs_closed_form(STRIKE, STRIKE, SIGMA, TAU)
        assert abs(today.value_at(STRIKE) - exact) / exact < 1e-3


class TestMertonResidual:
    @settings(max_examples=100, deadline=None)
    @given(alpha=finite, beta=finite, s=st.floats(1, 200), h=st.floats(0.1, 5),
           a=st.floats(-1, 1), b=st.floats(-1, 1))
    def test_degree_one_candidates_solve_exactly(self, alpha, beta, s, h, a, b):
        # V = alpha s + beta H has no curvature and no net position term,
        # so the residual vanishes identically for every A and B
        residual = merton_residual(
            v=alpha * s + beta * h, dv_dt=0.0, dv_ds=alpha, dv_dh=beta,
            d2v_ds2=0.0, d2v_dh2=0.0, s=s, h=h,
            sigma1=0.3, sigma_hat=0.1, a=a, b=b,
        )
        scale = (1.0 + abs(alpha * s) + abs(beta * h)) * (1.0 + abs(a + b))
        assert abs(residual) <= 1e-15 * scale

    def test_homogeneous_closed_form_solves(self):
        # V(t, s, H) = H c(s/H, tau) with c the zero-rate call at combined
        # volatility; finite-difference derivatives leave only truncation error
        sigma1, sigma_hat = 0.2, 0.05
        combined = np.hypot(sigma1, sigma_hat)
        tau = 0.7
        s, h = 110.0, 0.9

        def v(t, s_, h_):
            return h_ * bs_closed_form(s_ / h_, 1.0, combined, tau - t)

        eps_t, eps_s, eps_h = 1e-5, 1e-3, 1e-5
        dv_dt = (v(eps_t, s, h) - v(-eps_t, s, h)) / (2 * eps_t)
        dv_ds = (v(0, s + eps_s, h) - v(0, s - eps_s, h)) / (2 * eps_s)
        dv_dh = (v(0, s, h + eps_h) - v(0, s, h - eps_h)) / (2 * eps_h)
        d2v_ds2 = (v(0, s + eps_s, h) - 2 * v(0, s, h) + v(0, s - eps_s, h)) / eps_s**2
        d2v_dh2 = (v(0, s, h + eps_h) - 2 * v(0, s, h) + v(0, s, h - eps_h)) / eps_h**2
        residual = merton_residual(
            v=v(0, s, h), dv_dt=dv_dt, dv_ds=dv_ds, dv_dh=dv_dh,
            d2v_ds2=d2v_ds2, d2v_dh2=d2v_dh2, s=s, h=h,
            sigma1=sigma1, sigma_hat=sigma_hat, a=0.03, b=0.01,
        )
        assert abs(residual) < 1e-4

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            merton_residual(np.nan, 0, 0, 0, 0, 0, 1, 1, 0.1, 0.1, 0, 0)


class TestDegenerateProblems:
    def test_zero_vol_discontinuous_payoff_rejected(self):
        s = log_price_grid(STRIKE, 200)
        with pytest.raises(DegenerateProblem, match="discontinuous"):
            PdeProblem(
                s_grid=s, t_grid=TimeGrid(0.01, 100),
                sigma=0.0, a_field=0.0, b_scalar=0.0,
                payoff=lambda sg: sg + 100.0 * (sg > STRIKE), payoff_kind="linear",
            )

    def test_tiny_grid_rejected(self):
        with pytest.raises(DegenerateProblem, match="coarse"):
            PdeProblem(
                s_grid=np.array([90.0, 100.0, 110.0]), t_grid=TimeGrid(0.01, 10),
                sigma=0.1, a_field=0.0, b_scalar=0.0,
                payoff=lambda sg: sg, payoff_kind="linear",
            )

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_expiry_must_be_positive_and_finite(self, tau):
        # tau = nan built a NaN time grid
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            vanilla_problem("call", STRIKE, SIGMA, tau)

    def test_odd_interval_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            log_price_grid(STRIKE, 401)

    def test_grid_not_uniform_in_log_price_rejected(self):
        # 300 log-uniform nodes below the strike and 100 above: the solver's
        # one log step would price an at-the-money call at 31.94, not 7.97
        s = np.concatenate(
            [np.geomspace(STRIKE / 8, STRIKE, 301), np.geomspace(STRIKE, 8 * STRIKE, 101)[1:]]
        )
        with pytest.raises(ValueError, match="uniform in log-price"):
            PdeProblem(
                s_grid=s, t_grid=TimeGrid(0.01, 100), sigma=SIGMA, a_field=0.0,
                b_scalar=0.0, payoff=lambda sg: np.maximum(sg - STRIKE, 0.0), strike=STRIKE,
            )

    def test_infinite_grid_node_rejected(self):
        s = log_price_grid(STRIKE, 200)
        s[-1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            PdeProblem(
                s_grid=s, t_grid=TimeGrid(0.01, 100), sigma=SIGMA, a_field=0.0,
                b_scalar=0.0, payoff=np.zeros_like, payoff_kind="linear",
            )

    @pytest.mark.parametrize("strike", [1e-300, STRIKE, 1e300])
    @pytest.mark.parametrize("n_s", [4, 400, 100_000])
    @pytest.mark.parametrize("span", [np.exp(0.2), 8.0])
    def test_log_price_grids_accepted(self, strike, n_s, span):
        # their log steps differ by rounding only, at any strike price accepts
        PdeProblem(
            s_grid=log_price_grid(strike, n_s, span), t_grid=TimeGrid(0.01, 1),
            sigma=SIGMA, a_field=0.0, b_scalar=0.0, payoff=lambda sg: sg, payoff_kind="linear",
        )
