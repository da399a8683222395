"""Finite-difference pricing under the gauge-field Black-Scholes equation.

The pricing equation

    dV/dt + (1/2) sigma^2 s^2 V_ss - s V_s A + V (A + B) = 0

is solved backward in time on a log-price grid with Crank-Nicolson stepping
and a Rannacher start-up (implicit-Euler half steps) to damp the payoff
kink.  Setting A = -r, B = 0 recovers the textbook equation with rate r;
the zero-rate closed form is the oracle for the A' = 0 gauge.

:func:`vanilla_problem` spans [K/span, K*span] with ln(span) = 8 sigma_max
sqrt(tau) + int |A| dtau, clipped to [0.2, ln 8]: eight log-price standard
deviations plus the drift (Kangro & Nicolaides, SIAM J. Numer. Anal. 38,
2000), until the cap.  The floor keeps sigma = A = 0 on a strictly increasing
grid.  The cap bounds the grid, not the Dirichlet truncation error: that
error grows with sigma sqrt(tau) and is not reported.  On the default
400 x 400 grid an at-the-money call with tau = 1 is within 5e-5 of the closed
form at sigma = 1, but 3e-4 off at sigma = 1.2 and 66.42 against 68.27 (2.7%)
at sigma = 2.

Every time step solves the same tridiagonal system M = I - (dt/2) L, so M
is LU-factored once with LAPACK ``dgttrf`` (again only where the
coefficients change between intervals).  With h = dt/2 the Crank-Nicolson
step is M^-1 (I + hL) = 2 M^-1 - I, so each step is one ``dgttrs`` solve
and two vector operations, no band product: w = M^-1 (2v) with the ends of
the right-hand side set to bc + v, then v = w - v with its ends set to the
Dirichlet data bc.  The ``RANNACHER_STEPS`` start-up steps are two
implicit half steps each, with the same factors.  :func:`solve_today` is
the one solve: it steps from expiry back to today holding two price rows
and returns today's slice.  The steps run with floating-point warnings
off, and a solve whose values overflow to inf or NaN raises
:class:`DegenerateProblem`.  Deltas are differentiated from the values on
demand.  scipy is imported inside the functions that use it, so importing
the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .grid import TimeGrid

ArrayLike = Union[float, np.ndarray]

#: Implicit-Euler start-up steps of the Crank-Nicolson solve.
RANNACHER_STEPS = 2


class DegenerateProblem(ValueError):
    """Raised for PDE problems the scheme cannot resolve."""


@dataclass(frozen=True)
class PdeProblem:
    """Grid, coefficients, and terminal data for the pricing equation.

    ``s_grid`` must be uniform in ln s, as :func:`log_price_grid` makes it.
    ``sigma``, ``a_field`` and ``b_scalar`` are scalars or per-interval
    series on ``t_grid``.  ``payoff`` maps the price grid to terminal values.
    ``payoff_kind`` selects the asymptotic boundary data: "call", "put", or
    "linear" (V proportional to s at both ends).
    """

    s_grid: np.ndarray
    t_grid: TimeGrid
    sigma: ArrayLike
    a_field: ArrayLike
    b_scalar: ArrayLike
    payoff: Callable[[np.ndarray], np.ndarray]
    payoff_kind: str = "call"
    strike: Optional[float] = None

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=float)
        object.__setattr__(self, "s_grid", s)
        if s.ndim != 1 or s.size < 5:
            raise DegenerateProblem("price grid too coarse: need at least 3 interior nodes")
        if not (np.all(s > 0) and np.all(np.isfinite(s))):
            raise ValueError("price grid must be positive, finite and strictly increasing")
        x = np.log(s)
        x_steps = np.diff(x)
        if not np.all(x_steps > 0):
            raise ValueError("price grid must be positive, finite and strictly increasing")
        # the solver takes one log step from the first two nodes; the steps of
        # a log_price_grid differ by at most 3 ulp of max |ln s|
        if np.ptp(x_steps) > 16.0 * np.finfo(float).eps * max(1.0, -x[0], x[-1]):
            raise ValueError("price grid must be uniform in log-price")
        if self.payoff_kind not in ("call", "put", "linear"):
            raise ValueError(f"unknown payoff_kind {self.payoff_kind!r}")
        if self.payoff_kind in ("call", "put") and self.strike is None:
            raise ValueError("call/put problems need a strike for boundary data")
        for name in ("sigma", "a_field", "b_scalar"):
            object.__setattr__(self, name, self.t_grid.per_interval(getattr(self, name), name))
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")
        terminal = np.asarray(self.payoff(s), dtype=float)
        if terminal.shape != s.shape or not np.all(np.isfinite(terminal)):
            raise ValueError("payoff must be finite on the grid")
        if np.max(self.sigma) == 0.0:
            # without diffusion a genuine discontinuity never smooths out:
            # flag payoffs whose largest node-to-node jump dwarfs the typical
            # one, or whose jumps are confined to a few isolated nodes
            jumps = np.abs(np.diff(terminal))
            positive = jumps[jumps > 0]
            if positive.size:
                sparse = positive.size < 0.1 * jumps.size
                spiky = np.max(jumps) > 20.0 * np.median(positive)
                if sparse or spiky:
                    raise DegenerateProblem("sigma = 0 with a discontinuous payoff")


def _log_step(s: np.ndarray) -> float:
    """Spacing of the uniform log-price grid, as the solver computes it."""
    x = np.log(s)
    return x[1] - x[0]


def _differentiate(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """dV/ds: central differences inside, one-sided at the ends."""
    dx = _log_step(s)
    deltas = np.empty_like(values)
    deltas[1:-1] = (values[2:] - values[:-2]) / (2.0 * dx) / s[1:-1]
    deltas[0] = (values[1] - values[0]) / (dx * s[0])
    deltas[-1] = (values[-1] - values[-2]) / (dx * s[-1])
    return deltas


@dataclass(frozen=True)
class OptionSlice:
    """Option values on the price grid today (t = 0)."""

    s_grid: np.ndarray
    t_grid: TimeGrid
    values: np.ndarray  # [n_s]

    def value_at(self, s: float) -> float:
        """Linear interpolation of the values at price s."""
        return float(np.interp(s, self.s_grid, self.values))

    def delta_at(self, s: float) -> float:
        """Linear interpolation of dV/ds at price s."""
        return float(np.interp(s, self.s_grid, _differentiate(self.values, self.s_grid)))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def bs_closed_form(s: float, e: float, sigma: float, tau: float) -> float:
    """Zero-rate Black-Scholes call value (the natural A' = 0 gauge)."""
    return bs_closed_form_rate(s, e, sigma, tau, 0.0)


def bs_closed_form_rate(s: float, e: float, sigma: float, tau: float, r: float) -> float:
    """Textbook Black-Scholes call with constant rate r (reduction oracle)."""
    from scipy.special import ndtr

    if tau <= 0:
        return max(s - e, 0.0)
    if sigma <= 0:
        return max(s - e * np.exp(-r * tau), 0.0)
    st = sigma * np.sqrt(tau)
    d1 = (np.log(s / e) + (r + 0.5 * sigma**2) * tau) / st
    d2 = d1 - st
    return float(s * ndtr(d1) - e * np.exp(-r * tau) * ndtr(d2))


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def log_price_grid(strike: float, n_intervals: int = 400, span: float = 8.0) -> np.ndarray:
    """Log-spaced grid on [strike/span, strike*span] with the strike a node.

    ``n_intervals`` must be even so the center node lands on the strike.
    """
    if n_intervals % 2:
        raise ValueError("n_intervals must be even to center the strike")
    x = np.linspace(np.log(strike / span), np.log(strike * span), n_intervals + 1)
    return np.exp(x)


def vanilla_problem(
    kind: str,
    strike: float,
    sigma: ArrayLike,
    tau: float,
    a_field: ArrayLike = 0.0,
    b_scalar: ArrayLike = 0.0,
    n_s: int = 400,
    n_t: int = 400,
) -> PdeProblem:
    """Standard call/put problem on a grid sized to sigma and A (see the module docstring)."""
    grid = TimeGrid(dt=tau / n_t, steps=n_t)
    sigma_max = np.max(grid.per_interval(sigma, "sigma"))
    int_abs_a = grid.integral(np.abs(grid.per_interval(a_field, "a_field")))
    # e^3 > 8, so capping the exponent at 3 keeps exp finite and the span unchanged
    span = min(8.0, np.exp(min(max(8.0 * sigma_max * np.sqrt(tau) + int_abs_a, 0.2), 3.0)))
    s = log_price_grid(strike, n_s, span)
    if kind == "call":
        payoff = lambda sg: np.maximum(sg - strike, 0.0)
    elif kind == "put":
        payoff = lambda sg: np.maximum(strike - sg, 0.0)
    else:
        raise ValueError("kind must be 'call' or 'put'")
    return PdeProblem(
        s_grid=s, t_grid=grid, sigma=sigma, a_field=a_field, b_scalar=b_scalar,
        payoff=payoff, payoff_kind=kind, strike=strike,
    )


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def _operator_bands(sigma: float, a: float, b: float, dx: float):
    """Tridiagonal coefficients of the spatial operator in x = ln s.

    L V = (1/2) sigma^2 V_xx - (1/2 sigma^2 + a) V_x + (a + b) V.
    """
    diff = 0.5 * sigma**2 / dx**2
    conv = (0.5 * sigma**2 + a) / (2.0 * dx)
    lower = diff + conv
    diag = -2.0 * diff + (a + b)
    upper = diff - conv
    return lower, diag, upper


def _boundary_values(problem: PdeProblem, int_a_b: np.ndarray, int_b: np.ndarray):
    """Dirichlet data at s_min/s_max from the exact asymptotic solutions.

    For large s the equation is solved by s * exp(int B d tau); a constant
    payoff piece grows as exp(int (A + B) d tau).  Takes and returns one
    value per time step.
    """
    s_lo = problem.s_grid[0]
    s_hi = problem.s_grid[-1]
    # np.exp on unit-stride data gives the bits of np.exp on each element
    # alone; a strided view, even of one element, takes another kernel whose
    # last bit can differ, so exponentiate copies
    growth_s = np.exp(int_b.copy())
    growth_c = np.exp(int_a_b.copy())
    if problem.payoff_kind == "call":
        return np.zeros_like(growth_s), s_hi * growth_s - problem.strike * growth_c
    if problem.payoff_kind == "put":
        return problem.strike * growth_c - s_lo * growth_s, np.zeros_like(growth_s)
    # linear: V proportional to s at both ends
    terminal = problem.payoff(problem.s_grid)
    return terminal[0] * growth_s, terminal[-1] * growth_s


def _factor_implicit(lower: float, diag: float, upper: float, theta_dt: float, n: int):
    """LU factors of (I - theta_dt L) with identity rows at the Dirichlet ends."""
    from scipy.linalg.lapack import dgttrf

    dl = np.full(n - 1, -theta_dt * lower)
    d = np.full(n, 1.0 - theta_dt * diag)
    du = np.full(n - 1, -theta_dt * upper)
    dl[-1] = 0.0
    d[0] = d[-1] = 1.0
    du[0] = 0.0
    *factors, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise DegenerateProblem("singular implicit step matrix")
    return factors


def solve_today(problem: PdeProblem) -> OptionSlice:
    """Backward Crank-Nicolson solve of the gauge-field pricing equation: today's slice.

    The first ``RANNACHER_STEPS`` time steps run as pairs of implicit-Euler
    half steps; second-order accurate in space and time thereafter.  Every
    step solves with the matrix M = I - (dt/2) L, whose LU factors are
    reused until an interval's (sigma, A, B) differs from the previous one:
    a start-up step is two ``dgttrs`` solves, a Crank-Nicolson step one,
    v <- M^-1 (2v) - v with the Dirichlet data at the ends (module
    docstring).  Two price rows are held, so memory is O(n_s) for any
    number of steps.
    """
    from scipy.linalg.lapack import dgttrs

    s = problem.s_grid
    dx = _log_step(s)
    dt = problem.t_grid.dt
    half_dt = 0.5 * dt
    steps = problem.t_grid.steps
    n = s.size

    with np.errstate(all="ignore"):
        # Cumulative integrals of B and A+B over [t_k, T], then the boundary
        # data of every step.
        int_b_rev = np.concatenate([[0.0], np.cumsum((problem.b_scalar * dt)[::-1])])[::-1]
        int_ab_rev = np.concatenate(
            [[0.0], np.cumsum(((problem.a_field + problem.b_scalar) * dt)[::-1])]
        )[::-1]
        bc_lo, bc_hi = _boundary_values(problem, int_ab_rev[:-1], int_b_rev[:-1])

        # refactor at the last interval and wherever (sigma, A, B) changes
        sig, a_f, b_f = problem.sigma, problem.a_field, problem.b_scalar
        refactor = np.ones(steps, dtype=bool)
        refactor[:-1] = (sig[:-1] != sig[1:]) | (a_f[:-1] != a_f[1:]) | (b_f[:-1] != b_f[1:])

        v = np.array(problem.payoff(s), dtype=float)
        rhs = np.empty(n)
        for k in range(steps - 1, -1, -1):
            if refactor[k]:
                factors = _factor_implicit(*_operator_bands(sig[k], a_f[k], b_f[k], dx), half_dt, n)
            if steps - 1 - k < RANNACHER_STEPS:
                # Rannacher start-up: two implicit-Euler half steps
                for _ in range(2):
                    v[0], v[-1] = bc_lo[k], bc_hi[k]
                    v = dgttrs(*factors, v, overwrite_b=1)[0]
            else:
                # (I - hL)^-1 (I + hL) v = 2 (I - hL)^-1 v - v: solve for
                # w with right-hand side 2v, whose ends bc + v make the ends
                # of w - v the Dirichlet data, then set them to it exactly
                np.multiply(v, 2.0, out=rhs)
                rhs[0], rhs[-1] = bc_lo[k] + v[0], bc_hi[k] + v[-1]
                rhs = dgttrs(*factors, rhs, overwrite_b=1)[0]
                np.subtract(rhs, v, out=v)
                v[0], v[-1] = bc_lo[k], bc_hi[k]
    _require_finite(v)
    return OptionSlice(s_grid=problem.s_grid, t_grid=problem.t_grid, values=v)


def _require_finite(values: np.ndarray) -> None:
    # the steps run with floating-point warnings off, and an overflow leaves
    # inf or NaN in the result; two reductions, no result-sized temporary,
    # and a NaN makes both NaN
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise DegenerateProblem("non-finite option values: the coefficients overflow the solve")


def solve_primed_gauge(problem: PdeProblem, sigma_hat: float = 0.0) -> OptionSlice:
    """Solve in the primed A' = 0 gauge with the finite-N volatility bump.

    Replaces sigma by Sigma = sqrt(sigma^2 + sigma_hat^2) and forces A = 0.
    The only effect of discounting with an approximately risk-free portfolio
    is this O(1/sqrt(N)) increase in volatility.
    """
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be nonnegative")
    primed = replace(
        problem, sigma=np.hypot(problem.sigma, sigma_hat), a_field=np.zeros(problem.t_grid.steps)
    )
    return solve_today(primed)


# ---------------------------------------------------------------------------
# Merton-form residual
# ---------------------------------------------------------------------------

def merton_residual(
    v: float,
    dv_dt: float,
    dv_ds: float,
    dv_dh: float,
    d2v_ds2: float,
    d2v_dh2: float,
    s: float,
    h: float,
    sigma1: float,
    sigma_hat: float,
    a: float,
    b: float,
) -> float:
    """Left-hand side of the gauge-invariant two-factor pricing equation.

        V_t + (1/2) sigma1^2 s^2 V_ss + (1/2) sigma_hat^2 H^2 V_HH
            + (V - s V_s - H V_H)(A + B)

    Zero residual means the candidate solves the equation (per unit option
    quantity); the candidate's hedge ratio in H is -dv_dh.  Degree-one
    functions of (s, H) with vanishing second derivatives give exactly zero
    for every A and B.
    """
    inputs = [v, dv_dt, dv_ds, dv_dh, d2v_ds2, d2v_dh2, s, h, sigma1, sigma_hat, a, b]
    if not np.all(np.isfinite(inputs)):
        raise ValueError("all inputs must be finite")
    residual = (
        dv_dt
        + 0.5 * sigma1**2 * s**2 * d2v_ds2
        + 0.5 * sigma_hat**2 * h**2 * d2v_dh2
        + (v - s * dv_ds - h * dv_dh) * (a + b)
    )
    return float(residual)
