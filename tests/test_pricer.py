import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeport import (
    ProcessSpec,
    TimeGrid,
    bs_closed_form,
    bs_closed_form_rate,
    merton_residual,
    simulate,
    solve_primed_gauge,
    solve_today,
    vanilla_problem,
)
from gaugeport import pricer
from gaugeport.pricer import RANNACHER_STEPS, DegenerateProblem, PdeProblem, log_price_grid

STRIKE = 100.0
SIGMA = 0.2
TAU = 1.0

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)

#: The benchmark's price ladder: (kind, strike, sigma, A, n_s = n_t).
LADDER = [
    (kind, strike, sigma, a, 400)
    for kind in ("call", "put")
    for strike in (80.0, 100.0, 125.0)
    for sigma in (0.1, 0.2, 0.4)
    for a in (0.0, -0.05)
] + [("call", 100.0, 0.1, 0.0, 1600), ("put", 100.0, 0.2, -0.05, 1600)]


class TestClosedForms:
    def test_at_the_money_value(self):
        # ATM zero-rate call: 100 (2 Phi(0.1) - 1) = 7.9656
        assert bs_closed_form(100, 100, 0.2, 1.0) == pytest.approx(7.9656, abs=1e-3)

    def test_monte_carlo_agrees(self):
        # driftless log-normal terminal prices reproduce the zero-rate value
        grid = TimeGrid(1.0 / 64, 64)
        spec = ProcessSpec(1, 0.0, SIGMA)
        paths = simulate(spec, grid, 200_000, seed=55, s0=100.0)
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

    def test_erfc_form_matches_ndtr_form(self):
        # the difference of the two terms cancels on out-of-the-money
        # calls, so the forms' rounding is bounded against the spot, which
        # bounds the call: relative to the value it reaches 2e-14 here
        from scipy.special import ndtr

        for s, e, sigma, tau, r in itertools.product(
            (50.0, 80.0, 100.0, 125.0, 200.0), (80.0, 90.0, 100.0, 110.0, 125.0),
            (0.05, 0.1, 0.2, 0.4, 1.0, 3.0), (0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0),
            (-0.05, 0.0, 0.03, 0.1),
        ):
            spread = sigma * np.sqrt(tau)
            d1 = (np.log(s / e) + (r + 0.5 * sigma**2) * tau) / spread
            ndtr_form = s * ndtr(d1) - e * np.exp(-r * tau) * ndtr(d1 - spread)
            assert abs(bs_closed_form_rate(s, e, sigma, tau, r) - ndtr_form) <= 1e-15 * s

    @pytest.mark.parametrize(
        "args, name",
        [
            ((100.0, 100.0, np.nan, 1.0, 0.0), "sigma"),
            ((100.0, 100.0, 0.2, np.nan, 0.0), "tau"),
            ((100.0, 0.0, 0.2, 1.0, 0.0), "e"),
            ((-1.0, 100.0, 0.2, 1.0, 0.0), "s"),
            ((100.0, 100.0, -0.2, 1.0, 0.0), "sigma"),
            ((100.0, 100.0, 0.2, -1.0, 0.0), "tau"),
            ((100.0, 100.0, 0.2, 1.0, np.inf), "r"),
            # exp(-r tau) overflows: math.exp raises, or takes inf to inf
            ((100.0, 100.0, 0.2, 1.0, -800.0), "r"),
            ((100.0, 100.0, 0.0, 1.0, -800.0), "r"),
            ((100.0, 100.0, 0.2, 1e300, -1e10), "r"),
            # sigma**2 overflows, whatever tau is
            ((100.0, 100.0, 1e200, 1.0, 0.0), "sigma"),
            ((100.0, 100.0, 1e200, 1e300, 0.0), "sigma"),
            ((100.0, 100.0, 1.4e154, 5e-324, 0.0), "sigma"),
        ],
    )
    def test_bad_inputs_raise_naming_the_argument(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bs_closed_form_rate(*args)

    @pytest.mark.parametrize(
        "s, e, sigma, tau, r, value",
        [
            # sigma^2 tau overflows: N(d2) = 0
            pytest.param(100.0, 100.0, 1e150, 1e10, 0.0, 100.0, id="1e+150-10000000000.0-0.0"),
            # r tau overflows: exp(-r tau) = 0
            pytest.param(100.0, 100.0, 0.2, 1.0, 1e300, 100.0, id="0.2-1.0-1e+300"),
            # e exp(-r tau) overflows where N(d2) = 0: inf * 0 was NaN
            pytest.param(1.0, 1e300, 0.2, 1.0, -700.0, 0.0, id="strike-discount-overflows"),
            # s / e underflows to 0: its log raised "math domain error"
            pytest.param(1e-300, 1e300, 0.2, 1.0, 0.0, 0.0, id="moneyness-underflows"),
        ],
    )
    def test_overflowing_variance_gives_the_limit(self, s, e, sigma, tau, r, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bs_closed_form_rate(s, e, sigma, tau, r) == value


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
        # ln(span) = max(8 sigma_max sqrt(tau) clipped to [0.2, ln 8],
        # 5 sigma_max sqrt(tau), |int A dtau| + max(5 sigma_max sqrt(tau), 0.2));
        # the grid is centred on K' = K exp(int A dtau)
        sigma = np.full(400, 0.1)
        sigma[:100] = 0.15
        a_field = np.linspace(-0.05, 0.1, 400)
        s = vanilla_problem("call", STRIKE, sigma, TAU, a_field=a_field).s_grid
        shifted, span = STRIKE * np.exp(0.025 * TAU), np.exp(8.0 * 0.15)
        np.testing.assert_allclose(
            [s[0], s[200], s[-1]], [shifted / span, shifted, shifted * span], rtol=1e-12
        )
        flat = vanilla_problem("put", STRIKE, 0.0, TAU).s_grid
        np.testing.assert_allclose(flat[-1] / flat[0], np.exp(0.4), rtol=1e-12)
        # 8 sigma sqrt(tau) >= ln 8 > 5 sigma sqrt(tau): exactly the [K/8, 8K] grid
        wide = vanilla_problem("call", STRIKE, 0.4, TAU).s_grid
        assert np.array_equal(wide, log_price_grid(STRIKE, 400, 8.0))
        # 5 sigma sqrt(tau) > ln 8: five log-price standard deviations
        wider = vanilla_problem("call", STRIKE, 1.0, TAU).s_grid
        assert np.array_equal(wider, log_price_grid(STRIKE, 400, np.exp(5.0)))
        # and five more around K, |int A dtau| = 0.05 off the centre
        shifted = vanilla_problem("call", STRIKE, 1.0, TAU, a_field=-0.05).s_grid
        np.testing.assert_allclose(
            [shifted[0], shifted[-1]], STRIKE * np.exp([-0.05 - 5.05, -0.05 + 5.05]), rtol=1e-12
        )
        # sigma = 0 and int A dtau = -0.25: K stays 0.2 inside the top end
        low = vanilla_problem("call", STRIKE, 0.0, TAU, a_field=-0.25).s_grid
        np.testing.assert_allclose(low[-1], STRIKE * np.exp(0.2), rtol=1e-12)

    @pytest.mark.parametrize("kind, strike, sigma, a, n", LADDER)
    def test_benchmark_ladder_within_1e_3(self, kind, strike, sigma, a, n):
        today = solve_today(vanilla_problem(kind, strike, sigma, TAU, a_field=a, n_s=n, n_t=n))
        exact = bs_closed_form_rate(strike, strike, sigma, TAU, -a)
        if kind == "put":
            exact += strike * np.exp(a * TAU) - strike
        assert abs(today.value_at(strike) - exact) / exact < 1e-3

    @pytest.mark.parametrize("sigma", [0.2, 0.4])
    def test_time_varying_a_matches_its_mean_rate(self, sigma):
        # only int A dtau enters the price: the closed form at its mean rate is exact
        grid = TimeGrid(TAU / 400, 400)
        a_field = -(0.04 + 0.1 * np.sin(6.0 * np.pi * (grid.points()[:-1] + 0.5 * grid.dt)))
        today = solve_today(vanilla_problem("call", STRIKE, sigma, TAU, a_field=a_field))
        exact = bs_closed_form_rate(STRIKE, STRIKE, sigma, TAU, -grid.integral(a_field) / TAU)
        assert abs(today.value_at(STRIKE) - exact) / exact < 1e-3

    @pytest.mark.parametrize("sigma, tol", [(1.0, 1e-3), (2.0, 1e-3), (5.0, 2e-2)])
    def test_large_sigma_matches_closed_form(self, sigma, tol):
        # the span grows with sigma sqrt(tau), so the Dirichlet truncation
        # error does not: at 400^2 the ln 8 cap gave 2.7e-2 at sigma = 2
        today = solve_today(vanilla_problem("call", STRIKE, sigma, TAU))
        exact = bs_closed_form(STRIKE, STRIKE, sigma, TAU)
        assert abs(today.value_at(STRIKE) - exact) / exact < tol

    @pytest.mark.parametrize("fields", [{"b_scalar": 1e10}, {"a_field": 1e300}])
    @pytest.mark.parametrize("solve", [solve_today])
    def test_overflow_is_degenerate_without_warnings(self, solve, fields):
        # a large B overflows exp(int B dtau) on the values; int A dtau = 1e300 the shifted strike
        message = "price grid" if "a_field" in fields else "non-finite option values"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateProblem, match=message):
                solve(vanilla_problem("call", STRIKE, SIGMA, TAU, **fields))

    @pytest.mark.parametrize("sigma, tau", [(1e10, TAU), (SIGMA, 1e300)])
    def test_span_that_overflows_is_degenerate_without_warnings(self, sigma, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateProblem, match=r"price grid \[K/span, K\*span\] is not finite"):
                vanilla_problem("call", STRIKE, sigma, tau)

    @pytest.mark.parametrize(
        "sigma, n_s, message",
        [
            # the at-the-money call read 11.47 at sigma = 20 and 2.0e28 at sigma = 100
            (20.0, 400, r"sigma sqrt\(tau\) = 20 is above 5"),
            (100.0, 400, r"sigma sqrt\(tau\) = 100 is above 5"),
            # ln(span) = 25 on 398 nodes is a step of 0.1256 in ln s
            (5.0, 398, r"price grid too coarse: ln\(span\) = 25 needs n_s >= 400"),
            (1.0, 78, r"needs n_s >= 80"),
        ],
    )
    def test_widened_grid_past_its_bounds_is_degenerate(self, sigma, n_s, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateProblem, match=message):
                vanilla_problem("call", STRIKE, sigma, TAU, n_s=n_s)

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


def banded_solve(bands, dt, n):
    """solve_banded of the rebuilt matrix I - (dt/2) L, with identity rows at the ends."""
    from scipy.linalg import solve_banded

    lower, diag, upper = bands
    ab = np.zeros((3, n))
    ab[0, 2:] = -0.5 * dt * upper
    ab[1, 1:-1] = 1.0 - 0.5 * dt * diag
    ab[2, :-2] = -0.5 * dt * lower
    ab[1, 0] = ab[1, -1] = 1.0
    return lambda rhs: solve_banded((1, 1), ab, rhs)


def banded_steps(problem):
    """Per time step from expiry back: k and a solve_banded of the rebuilt
    zero-rate matrix, whose operator is (1/2) sigma^2 (D_xx - D_x)."""
    s = problem.s_grid
    dx = np.log(s)[1] - np.log(s)[0]
    for k in range(problem.t_grid.steps - 1, -1, -1):
        diff = 0.5 * problem.sigma[k] ** 2 / dx**2
        conv = 0.5 * problem.sigma[k] ** 2 / (2.0 * dx)
        yield k, banded_solve((diff + conv, -2.0 * diff, diff - conv), problem.t_grid.dt, s.size)


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
    then v = w - v with ends bc, the terminal row's end values.  Returns
    today's values, times the problem's scale, and their deltas.
    """
    steps = problem.t_grid.steps
    v = problem.terminal.copy()
    bc = (v[0], v[-1])
    for k, solve in banded_steps(problem):
        if steps - 1 - k < rannacher_steps:
            v = implicit_half_step(implicit_half_step(v, bc, solve), bc, solve)
        else:
            rhs = 2.0 * v
            rhs[0], rhs[-1] = bc[0] + v[0], bc[1] + v[-1]
            v = solve(rhs) - v
            v[0], v[-1] = bc
    v = v * problem.scale
    return v, grid_deltas(v, problem.s_grid)


def two_operator_reference(problem, kind, strike, a_field, b_scalar, rannacher_steps=2):
    """The paper's equation with A and B in its bands, on the problem's grid
    and sigma: per step the explicit half step (I + hL) v as a band product,
    then the implicit half step.

    L V = (1/2) sigma^2 V_xx - (1/2 sigma^2 + A) V_x + (A + B) V, and the
    Dirichlet data are its exact asymptotic solutions: s exp(int_t^T B) for
    large s, and a constant K growing as exp(int_t^T (A + B)).  ``kind`` is
    "call", "put" or "linear" (the forward 2s).  An oracle for solve_today
    that shares none of its gauge transform; returns today's values.
    """
    grid, s = problem.t_grid, problem.s_grid
    dt, steps, n = grid.dt, grid.steps, s.size
    dx = np.log(s)[1] - np.log(s)[0]
    a, b = grid.per_interval(a_field, "a_field"), grid.per_interval(b_scalar, "b_scalar")
    int_b = np.cumsum((b * dt)[::-1])[::-1]
    int_ab = np.cumsum(((a + b) * dt)[::-1])[::-1]
    payoffs = {
        "call": lambda sg: np.maximum(sg - strike, 0.0),
        "put": lambda sg: np.maximum(strike - sg, 0.0),
        "linear": lambda sg: 2.0 * sg,
    }
    v = payoffs[kind](s)
    for k in range(steps - 1, -1, -1):
        sig = problem.sigma[k]
        diff = 0.5 * sig**2 / dx**2
        conv = (0.5 * sig**2 + a[k]) / (2.0 * dx)
        lower, diag, upper = diff + conv, -2.0 * diff + (a[k] + b[k]), diff - conv
        solve = banded_solve((lower, diag, upper), dt, n)
        growth_s, growth_c = np.exp(int_b[k]), np.exp(int_ab[k])
        bc = {
            "call": (0.0, s[-1] * growth_s - strike * growth_c),
            "put": (strike * growth_c - s[0] * growth_s, 0.0),
            "linear": (2.0 * s[0] * growth_s, 2.0 * s[-1] * growth_s),
        }[kind]
        if steps - 1 - k < rannacher_steps:
            v = implicit_half_step(implicit_half_step(v, bc, solve), bc, solve)
        else:
            half = v.copy()
            half[1:-1] = v[1:-1] + 0.5 * dt * (lower * v[:-2] + diag * v[1:-1] + upper * v[2:])
            v = implicit_half_step(half, bc, solve)
    return v


def assert_matches_reference(problem):
    """solve_today's values and grid deltas are banded_reference's within 1e-11 max|v|.

    The eigenbasis solve and the per-step solve are one scheme and differ by
    rounding.  Over these tests the widest gap is 5.8e-13 max|v| on the
    values and 2.6e-13 max|v| on the deltas, at the ladder's 1600-node put.
    Returns the slice, the reference values and deltas, and the bound.
    """
    values, deltas = banded_reference(problem)
    today = solve_today(problem)
    bound = 1e-11 * np.max(np.abs(values))
    assert np.max(np.abs(today.values - values)) <= bound
    today_deltas = np.array([today.delta_at(s) for s in problem.s_grid])
    assert np.max(np.abs(today_deltas - deltas)) <= bound
    return today, values, deltas, bound


class TestFactorOnceSolver:
    """The eigenbasis solve reproduces the per-step banded solve to rounding."""

    @pytest.mark.parametrize("kind", ["call", "put", "linear"])
    def test_per_interval_series_bit_identical(self, kind):
        # piecewise-constant coefficients: every sigma piece brings its own
        # growth factors, and A and B change between the pieces of sigma
        assert_matches_reference(per_interval_problem(kind))

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_default_grid_bit_identical(self, kind):
        problem = vanilla_problem(kind, STRIKE, 0.1, TAU, a_field=-0.05)
        assert_matches_reference(problem)


def per_interval_fields(steps=120):
    """Piecewise-constant (sigma, A, B) series of 6, 4 and 3 pieces over 120 steps."""
    rng = np.random.default_rng(21)

    def pieces(lo, hi, count):
        # shorter grids keep the start of the 120-step series
        return np.repeat(rng.uniform(lo, hi, count), -(-steps // count))[:steps]

    return pieces(0.1, 0.4, 6), pieces(-0.1, 0.1, 4), pieces(-0.02, 0.02, 3)


def per_interval_problem(kind, steps=120):
    """A call, a put or the forward 2s (kind "linear") under per_interval_fields, on 200 nodes."""
    sigma, a_field, b_scalar = per_interval_fields(steps)
    if kind != "linear":
        return vanilla_problem(
            kind, STRIKE, sigma, TAU, a_field=a_field, b_scalar=b_scalar, n_s=200, n_t=steps
        )
    # the forward has no strike for A to shift; B scales it
    grid, s = TimeGrid(TAU / steps, steps), log_price_grid(STRIKE, 200)
    return PdeProblem(
        s_grid=s, t_grid=grid, sigma=sigma,
        terminal=2.0 * s, scale=np.exp(grid.integral(b_scalar)),
    )


class TestRollingSolve:
    """solve_today is today's row of banded_reference, to rounding, in O(n_s) memory."""

    @staticmethod
    def assert_row_zero(problem):
        today, values, deltas, bound = assert_matches_reference(problem)
        assert today.s_grid is problem.s_grid and today.t_grid is problem.t_grid
        assert today.values.shape == problem.s_grid.shape
        s_grid = problem.s_grid
        strike = s_grid[s_grid.size // 2]  # K exp(int A dtau), or the forward's centre
        for s in (strike, 0.97 * strike, 1.13 * strike, s_grid[0], s_grid[-1], 0.5 * s_grid[0]):
            assert abs(today.value_at(s) - np.interp(s, s_grid, values)) <= bound
            assert abs(today.delta_at(s) - np.interp(s, s_grid, deltas)) <= bound

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

    @pytest.mark.parametrize("sigma, tau", [(5.0, TAU), (0.9, 30.0)])
    def test_widest_grids(self, sigma, tau):
        # spans of e^25 and e^24.6, the widest at 400 nodes: the eigenvector
        # weights span e^12.5 either way of the centre
        self.assert_row_zero(vanilla_problem("call", STRIKE, sigma, tau))

    @pytest.mark.parametrize("steps", [2, 3, 120])
    def test_one_lapack_solve_per_step(self, monkeypatch, steps):
        # the reference solve_today is held to makes one LAPACK solve per
        # Crank-Nicolson step and two per Rannacher step; solve_today, in the
        # eigenbasis, makes none, so every call counted is the reference's
        import scipy.linalg

        solve_banded = scipy.linalg.solve_banded
        calls = []

        def counted(*args):
            calls.append(None)
            return solve_banded(*args)

        monkeypatch.setattr(scipy.linalg, "solve_banded", counted)
        self.assert_row_zero(per_interval_problem("call", steps=steps))
        assert len(calls) == steps + RANNACHER_STEPS

    @pytest.mark.parametrize(
        "problem, factorizations",
        [
            # A changes on every interval and sigma never: one growth power
            (vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=np.linspace(-0.1, 0.1, 400)), 1),
            # sigma in 6 pieces, A in 4 and B in 3: one per sigma piece
            (per_interval_problem("call"), 6),
        ],
    )
    def test_factors_only_where_sigma_changes(self, monkeypatch, problem, factorizations):
        # the eigenbasis solve raises each mode's Crank-Nicolson growth to a
        # power once per distinct sigma, where a per-step solve would factor
        growth = pricer._crank_nicolson_growth
        calls = []

        def counted(*args):
            calls.append(None)
            return growth(*args)

        monkeypatch.setattr(pricer, "_crank_nicolson_growth", counted)
        self.assert_row_zero(problem)
        assert len(calls) == factorizations

    @pytest.mark.parametrize("n_t", [1600, 3200])
    def test_holds_a_few_rows(self, n_t):
        # a 1600 x 1600 surface would be 1601 rows; the solve holds a few
        # rows: the values, the modes, their growth and the FFT's buffers
        problem = vanilla_problem("call", STRIKE, SIGMA, TAU, n_s=1600, n_t=n_t)
        solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU, n_s=10, n_t=2))  # imports numpy.fft
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            today = solve_today(problem)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 64 * today.values.nbytes


class TestEigenmodeOracle:
    """A discrete eigenvector rho^((j - c)/2) sin(j k pi / (m + 1)) of the interior
    operator, with zero ends, is only scaled: by (1 - h sigma^2 lambda_k)^-2
    per start-up step and by (1 + h sigma^2 lambda_k) / (1 - h sigma^2 lambda_k)
    per Crank-Nicolson step, h = dt/2."""

    @pytest.mark.parametrize("mode", ["first", "middle", "stiffest"])
    @pytest.mark.parametrize("per_interval", [False, True])
    # dt = 1e-4 keeps every mode's growth far above rounding (the stiffest
    # keeps 6.5e-3 or more); at dt = tau / 120 the stiff modes' Crank-Nicolson
    # factors near -1 and the start-up steps damp all but the first
    @pytest.mark.parametrize("dt", [1e-4, TAU / 120])
    def test_mode_is_scaled_by_its_amplification(self, mode, per_interval, dt):
        s = log_price_grid(STRIKE, 200)
        n = s.size
        m = n - 2
        k = {"first": 1, "middle": m // 2, "stiffest": m}[mode]
        dx = np.log(s)[1] - np.log(s)[0]
        a, c = 1.0 / (2.0 * dx**2) + 1.0 / (4.0 * dx), 1.0 / (2.0 * dx**2) - 1.0 / (4.0 * dx)
        j = np.arange(n)
        terminal = (a / c) ** (0.5 * (j - 0.5 * (n - 1))) * np.sin(j * k * np.pi / (m + 1))
        terminal[0] = terminal[-1] = 0.0
        sigma = per_interval_fields()[0] if per_interval else SIGMA
        problem = PdeProblem(
            s_grid=s, t_grid=TimeGrid(dt, 120), sigma=sigma, terminal=terminal,
        )
        eigenvalue = -1.0 / dx**2 + 2.0 * np.sqrt(a * c) * np.cos(k * np.pi / (m + 1))
        growth = 1.0
        for step, sig in enumerate(problem.sigma[::-1]):
            z = 0.5 * problem.t_grid.dt * sig**2 * eigenvalue
            growth *= (1.0 - z) ** -2 if step < RANNACHER_STEPS else (1.0 + z) / (1.0 - z)
        for values in (solve_today(problem).values, banded_reference(problem)[0]):
            assert np.max(np.abs(values - growth * terminal)) <= 1e-12 * np.max(np.abs(terminal))


class TestTwoOperatorOracle:
    """The zero-rate solve at K exp(int A dtau), scaled by exp(int B dtau),
    agrees with the paper's equation solved with A and B in its bands, to
    within the discretization error."""

    @staticmethod
    def assert_agrees(problem, kind, strike, a, b, floor=0.0):
        oracle = two_operator_reference(problem, kind, strike, a, b)
        want = np.interp(strike, problem.s_grid, oracle)
        assert abs(solve_today(problem).value_at(strike) - want) <= 1e-3 * want + floor

    @pytest.mark.parametrize("kind", ["call", "put", "linear"])
    def test_per_interval_series(self, kind):
        _, a, b = per_interval_fields()
        self.assert_agrees(per_interval_problem(kind), kind, STRIKE, a, b)

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("a", [0.0, -0.05])
    def test_zero_sigma(self, kind, a):
        # without diffusion the oracle's central differences carry the payoff
        # kink with ripples (-2.3e-3 where the put is worth 0 at A = -0.05),
        # while the solve is exact, so the bound is on the strike's scale
        problem = vanilla_problem(kind, STRIKE, 0.0, TAU, a_field=a, b_scalar=0.02)
        self.assert_agrees(problem, kind, STRIKE, a, 0.02, floor=1e-4 * STRIKE)

    @pytest.mark.parametrize("kind, strike, sigma, a, n", LADDER)
    def test_benchmark_ladder(self, kind, strike, sigma, a, n):
        problem = vanilla_problem(kind, strike, sigma, TAU, a_field=a, n_s=n, n_t=n)
        self.assert_agrees(problem, kind, strike, a, 0.0)


class TestLinearPayoffs:
    def test_forward_contract_no_fields_is_exact(self):
        # payoff 2s with sigma = a = b = 0 propagates unchanged
        s = log_price_grid(STRIKE, 200)
        problem = PdeProblem(
            s_grid=s, t_grid=TimeGrid(TAU / 100, 100), sigma=0.0, terminal=2.0 * s,
        )
        today = solve_today(problem)
        np.testing.assert_allclose(today.values, 2.0 * today.s_grid, rtol=1e-12)

    def test_zero_vol_discontinuous_terminal_row_is_returned(self):
        # sigma = 0 makes the operator 0: a jump needs no diffusion to be solved
        s = log_price_grid(STRIKE, 200)
        terminal = s + 100.0 * (s > STRIKE)
        problem = PdeProblem(
            s_grid=s, t_grid=TimeGrid(TAU / 100, 100), sigma=0.0, terminal=terminal, scale=1.5,
        )
        assert solve_today(problem).values.tobytes() == (terminal * 1.5).tobytes()

    def test_diffusion_leaves_linear_payoff_almost_fixed(self):
        s = log_price_grid(STRIKE, 400)
        problem = PdeProblem(
            s_grid=s, t_grid=TimeGrid(TAU / 400, 400), sigma=SIGMA, terminal=2.0 * s,
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
        # one zero-rate solve underlies both, so they agree to rounding
        assert np.array_equal(shifted.s_grid, base.s_grid)
        np.testing.assert_allclose(shifted.values, np.exp(c * TAU) * base.values, rtol=1e-13)

    def test_price_rescaling_covariance(self):
        # rescaling prices by e^{c t} shifts A by -c and the strike by e^{c T};
        # today's values (where the rescaling factor is 1) must agree
        c = 0.04
        plain = solve_today(vanilla_problem("call", STRIKE, SIGMA, TAU))
        rescaled = solve_today(
            vanilla_problem("call", STRIKE * np.exp(c * TAU), SIGMA, TAU, a_field=-c)
        )
        # both are the zero-rate solve at the same shifted strike
        for s in (80.0, 100.0, 120.0):
            assert rescaled.value_at(s) == pytest.approx(plain.value_at(s), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "kind, a", [("call", -0.05), ("call", -0.25), ("put", 0.05), ("put", 0.25)]
    )
    def test_zero_sigma_is_the_discounted_intrinsic_value(self, kind, a):
        # without diffusion the call is S - K exp(a tau) and the put
        # K exp(a tau) - S at S = K; at |a| = 0.25, K' = K exp(a tau) is
        # farther from K than the sigma rules alone would span
        today = solve_today(vanilla_problem(kind, STRIKE, 0.0, TAU, a_field=a))
        exact = STRIKE * abs(np.expm1(a * TAU))
        assert today.value_at(STRIKE) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind, a", [("call", -0.05), ("put", 0.05)])
    def test_low_sigma_long_dated_matches_closed_form(self, kind, a):
        # sigma = 0.01, tau = 5: int A dtau = -+0.25 is past the sigma rules' 0.2
        sigma, tau = 0.01, 5.0
        today = solve_today(vanilla_problem(kind, STRIKE, sigma, tau, a_field=a))
        exact = bs_closed_form_rate(STRIKE, STRIKE, sigma, tau, -a)
        if kind == "put":
            exact += STRIKE * np.exp(a * tau) - STRIKE
        assert abs(today.value_at(STRIKE) - exact) / exact < 1e-6


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

    @pytest.mark.parametrize("a", [0.0, -0.05])
    def test_zero_bump_is_the_problem_solve(self, a):
        # a problem is already in the A' = 0 gauge: sigma_hat = 0 changes nothing
        problem = vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=a)
        primed = solve_primed_gauge(problem, sigma_hat=0.0)
        assert primed.values.tobytes() == solve_today(problem).values.tobytes()

    def test_bump_under_a_field_matches_rate_closed_form(self):
        r, sigma_hat = 0.05, 0.05
        problem = vanilla_problem("call", STRIKE, SIGMA, TAU, a_field=-r)
        today = solve_primed_gauge(problem, sigma_hat=sigma_hat)
        exact = bs_closed_form_rate(STRIKE, STRIKE, np.hypot(SIGMA, sigma_hat), TAU, r)
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
    @pytest.mark.parametrize("fault", ["wrong-length", "nan"])
    def test_terminal_row_must_be_finite_on_the_grid(self, fault):
        s = log_price_grid(STRIKE, 200)
        terminal = s[1:] if fault == "wrong-length" else np.where(s > STRIKE, np.nan, s)
        with pytest.raises(ValueError, match="^terminal values must be finite, one per price grid node$"):
            PdeProblem(s_grid=s, t_grid=TimeGrid(0.01, 100), sigma=SIGMA, terminal=terminal)

    def test_tiny_grid_rejected(self):
        s = np.array([90.0, 100.0, 110.0])
        with pytest.raises(DegenerateProblem, match="coarse"):
            PdeProblem(s_grid=s, t_grid=TimeGrid(0.01, 10), sigma=0.1, terminal=s)

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
                s_grid=s, t_grid=TimeGrid(0.01, 100), sigma=SIGMA,
                terminal=np.maximum(s - STRIKE, 0.0),
            )

    def test_infinite_grid_node_rejected(self):
        s = log_price_grid(STRIKE, 200)
        s[-1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            PdeProblem(
                s_grid=s, t_grid=TimeGrid(0.01, 100), sigma=SIGMA, terminal=np.zeros_like(s),
            )

    @pytest.mark.parametrize("ln_span", [4.2, 6.0])
    def test_nodes_2_apart_in_log_price_rejected(self, ln_span):
        # the operator's upper band 1/(2 dx^2) - 1/(4 dx) is not positive at dx >= 2
        s = log_price_grid(STRIKE, 4, np.exp(ln_span))
        with pytest.raises(DegenerateProblem, match="^price grid too coarse: nodes 2 or more apart in ln s$"):
            PdeProblem(s_grid=s, t_grid=TimeGrid(0.01, 100), sigma=SIGMA, terminal=s)

    def test_nodes_just_under_2_apart_solve(self):
        # rho = 79: the eigenvector weights are far from flat, and still agree
        s = log_price_grid(STRIKE, 4, np.exp(3.9))
        assert_matches_reference(PdeProblem(
            s_grid=s, t_grid=TimeGrid(0.01, 100), sigma=SIGMA, terminal=np.maximum(s - STRIKE, 0.0),
        ))

    @pytest.mark.parametrize("strike", [1e-300, STRIKE, 1e300])
    @pytest.mark.parametrize("n_s", [4, 400, 100_000])
    @pytest.mark.parametrize("span", [np.exp(0.2), 8.0])
    def test_log_price_grids_accepted(self, strike, n_s, span):
        # their log steps differ by rounding only, at any strike price accepts
        s = log_price_grid(strike, n_s, span)
        PdeProblem(s_grid=s, t_grid=TimeGrid(0.01, 1), sigma=SIGMA, terminal=s)
