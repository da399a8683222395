"""Finite-difference pricing under the gauge-field Black-Scholes equation.

The pricing equation

    dV/dt + (1/2) sigma^2 s^2 V_ss - s V_s A + V (A + B) = 0

reads the rate as a background gauge field A, and a gauge field can be
transformed away.  With V(s, t) = exp(int_t^T (A + B)) U(s exp(-int_t^T A), t)
it becomes the zero-rate equation U_t + (1/2) sigma^2 y^2 U_yy = 0 with the
same payoff.  A call or put payoff is homogeneous of degree one in (s, K),
so V_{A,B}(s; K) = exp(int B dtau) V_0(s; K exp(int A dtau)): a price
depends on A and B only through their integrals over [0, T].  That is the
paper's gauge symmetry, not an approximation.  A :class:`PdeProblem` is a
log-price grid, sigma, the payoff's terminal values on the grid and a value
scale.  :func:`vanilla_problem` folds both fields into the problem it
builds, the strike as K' = K exp(int A dtau) and the factor
exp(int B dtau) as ``scale``, so the solver only ever steps the zero-rate
equation, already in the primed A' = 0 gauge.  Setting A = -r, B = 0
recovers the textbook equation with rate r.

U is solved backward in time with Crank-Nicolson stepping and a Rannacher
start-up (implicit-Euler half steps) to damp the payoff kink.  At zero rates
a payoff that is linear near the grid's ends (a call, a put, a forward)
solves the equation there unchanged, so the Dirichlet data of every step are
the terminal row's end values.  At sigma = 0 the operator is 0 and the solve
returns the terminal row times ``scale``.

:func:`vanilla_problem` spans [K'/span, K'*span].  ln(span) is the largest
of three rules: 8 sigma_max sqrt(tau) clipped to [0.2, ln 8]; 5 sigma_max
sqrt(tau), five log-price standard deviations (Kangro & Nicolaides, SIAM J.
Numer. Anal. 38, 2000); and |int A dtau| + max(5 sigma_max sqrt(tau), 0.2),
which keeps the strike K, where prices are read, that far inside the grid's
ends.  B does not widen the grid.  On the default 400 x 400 grid an
at-the-money call with tau = 1 is off the closed form by a relative 1.5e-4
at sigma = 1, 6.6e-4 at sigma = 2 and 1.6e-2 at sigma = 5.  A span or grid
end that is not finite raises :class:`DegenerateProblem`, and so does a grid
widened past [K'/8, 8K'] whose nodes are more than ``MAX_LOG_STEP`` = 0.125
apart in ln s (sigma = 5 on 400 nodes) or whose sigma_max sqrt(tau) is above
``MAX_SIGMA_SQRT_TAU`` = 5, where the drift sigma^2 tau / 2 of ln s outruns
the five-deviation span.

Every time step solves the same tridiagonal system M = I - (dt/2) L, so M
is LU-factored once with LAPACK ``dgttrf`` (again only where sigma changes
between intervals).  ``dgttrf`` and ``dgttrs`` are bound through ctypes, on
first use, from the LAPACK that numpy links (:func:`_lapack`), so the
package loads no LAPACK of its own.  With h = dt/2 the Crank-Nicolson step
is M^-1 (I + hL) = 2 M^-1 - I, so each step is one ``dgttrs`` solve and two
vector operations, no band product: w = M^-1 (2v) with the ends of the
right-hand side set to bc + v, then v = w - v with its ends set to the
Dirichlet data bc.  The ``RANNACHER_STEPS`` start-up steps are two implicit
half steps each, with the same factors.  :func:`solve_today` is the one
solve: it steps from expiry back to today holding two price rows and
returns today's slice times ``scale``.  The steps run with floating-point
warnings off, and a solve whose values overflow to inf or NaN raises
:class:`DegenerateProblem`.  Deltas are differentiated from the values on
demand.  Nothing here imports scipy.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Union

import numpy as np
from numpy.linalg import _umath_linalg

from .grid import TimeGrid

ArrayLike = Union[float, np.ndarray]

#: Implicit-Euler start-up steps of the Crank-Nicolson solve.
RANNACHER_STEPS = 2

#: Widest node spacing in ln s, and largest sigma_max sqrt(tau), of a grid
#: that :func:`vanilla_problem` widens past [K/8, 8K].
MAX_LOG_STEP = 0.125
MAX_SIGMA_SQRT_TAU = 5.0

#: Names of LAPACK ``dgttrf`` and ``dgttrs`` in the libraries numpy links,
#: each pair with its integer type, in the order :func:`_lapack` tries them:
#: the scipy-openblas64 of numpy >= 2.0 wheels, the scipy-openblas32 of
#: wheels built with 32-bit integers, and the plain LP64 names (Accelerate,
#: reference LAPACK, a distribution's OpenBLAS).
_LAPACK_SYMBOLS = (
    ("scipy_dgttrf_64_", "scipy_dgttrs_64_", ctypes.c_int64),
    ("scipy_dgttrf_", "scipy_dgttrs_", ctypes.c_int32),
    ("dgttrf_", "dgttrs_", ctypes.c_int32),
)


class DegenerateProblem(ValueError):
    """Raised for PDE problems the scheme cannot resolve."""


@dataclass(frozen=True)
class PdeProblem:
    """Grid, volatility, terminal values and value scale of the zero-rate pricing equation.

    ``s_grid`` must be uniform in ln s, as :func:`log_price_grid` makes it.
    ``sigma`` is a scalar or a per-interval series on ``t_grid``.
    ``terminal`` holds the payoff's finite values on ``s_grid``; its two end
    values are the Dirichlet data of every step, exact where the payoff is
    linear near the ends.  Today's values are multiplied by ``scale``:
    exp(int B dtau) in a :func:`vanilla_problem`.
    """

    s_grid: np.ndarray
    t_grid: TimeGrid
    sigma: ArrayLike
    terminal: np.ndarray
    scale: float = 1.0

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
        object.__setattr__(self, "sigma", self.t_grid.per_interval(self.sigma, "sigma"))
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be nonnegative")
        terminal = np.asarray(self.terminal, dtype=float)
        object.__setattr__(self, "terminal", terminal)
        if terminal.shape != s.shape or not np.all(np.isfinite(terminal)):
            raise ValueError("terminal values must be finite, one per price grid node")


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
    """Textbook Black-Scholes call with constant rate r (reduction oracle).

    s and e must be positive, sigma and tau nonnegative, all five finite,
    and exp(-r tau) finite; anything else raises ValueError naming the
    argument, and so does a sigma whose square overflows (above 1.3e154).
    Where (r + sigma^2 / 2) tau overflows, the value is the call's limit s:
    N(d1) = 1 and either N(d2) = 0 or exp(-r tau) = 0.  An s / e below the
    smallest normal float and an e exp(-r tau) above the largest float are
    priced too.
    """
    for name, value, rule, ok in (
        ("s", s, "positive and finite", s > 0),
        ("e", e, "positive and finite", e > 0),
        ("sigma", sigma, "nonnegative and finite", sigma >= 0),
        ("tau", tau, "nonnegative and finite", tau >= 0),
        ("r", r, "finite", True),
    ):
        if not (ok and math.isfinite(value)):
            raise ValueError(f"{name} must be {rule}, got {value!r}")
    if tau == 0:
        return max(s - e, 0.0)
    try:
        discount = math.exp(-r * tau)
    except OverflowError:
        discount = math.inf
    if discount == math.inf:
        raise ValueError(f"r must be such that exp(-r tau) is finite, got r {r!r} with tau {tau!r}")
    st = sigma * math.sqrt(tau)
    if st == 0:  # sigma = 0, or sigma sqrt(tau) below the smallest float
        return max(s - e * discount, 0.0)
    moneyness = s / e
    # s / e underflows for s far below e: take the logs apart there
    log_moneyness = math.log(moneyness) if moneyness >= sys.float_info.min else math.log(s) - math.log(e)
    try:
        d1 = (log_moneyness + (r + 0.5 * sigma**2) * tau) / st
    except OverflowError:
        raise ValueError(f"sigma must be such that sigma**2 is finite, got {sigma!r}") from None
    if not math.isfinite(d1):  # inf, or inf / inf
        return float(s)
    d2 = d1 - st
    if e * discount < math.inf:
        return s * _norm_cdf(d1) - e * discount * _norm_cdf(d2)
    # e exp(-r tau) overflows, but the second term, at most the first, does not
    return s * _norm_cdf(d1) - e * (discount * _norm_cdf(d2))


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


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
    """Call or put under the fields A and B as a zero-rate problem (see the module docstring).

    The strike becomes K' = K exp(int A dtau), on which the grid is centred,
    and ``scale`` is exp(int B dtau).
    """
    grid = TimeGrid(dt=tau / n_t, steps=n_t)
    sigma_max = np.max(grid.per_interval(sigma, "sigma"))
    with np.errstate(all="ignore"):  # an overflow is caught below or by the solve
        int_a = grid.integral(grid.per_interval(a_field, "a_field"))
        scale = np.exp(grid.integral(grid.per_interval(b_scalar, "b_scalar")))
        shifted = strike * np.exp(int_a)
        spread = sigma_max * np.sqrt(tau)
        # prices are read at K, |int A dtau| off the centre K' in ln s: K
        # keeps max(5 sigma_max sqrt(tau), 0.2) of room to the grid's ends
        ln_near = abs(int_a) + max(5.0 * spread, 0.2)
        span = max(min(8.0, np.exp(max(8.0 * spread, 0.2))), np.exp(5.0 * spread), np.exp(ln_near))
        ln_span = np.log(span)
        s = log_price_grid(shifted, n_s, span)
    if not (0.0 < s[0] and s[-1] < np.inf):  # NaN fails this test
        raise DegenerateProblem(
            f"price grid [K/span, K*span] is not finite: sigma {sigma_max:g}, tau {tau:g}, "
            f"int A dtau {int_a:g}"
        )
    if spread > MAX_SIGMA_SQRT_TAU:
        raise DegenerateProblem(
            f"sigma sqrt(tau) = {spread:g} is above {MAX_SIGMA_SQRT_TAU:g}: "
            "the drift of ln s outruns the price grid"
        )
    if span > 8.0 and 2.0 * ln_span / n_s > MAX_LOG_STEP:
        raise DegenerateProblem(
            f"price grid too coarse: ln(span) = {ln_span:g} needs n_s >= "
            f"{2 * int(np.ceil(ln_span / MAX_LOG_STEP))} for nodes {MAX_LOG_STEP:g} apart in ln s"
        )
    if kind not in ("call", "put"):
        raise ValueError("kind must be 'call' or 'put'")
    terminal = np.maximum(s - shifted if kind == "call" else shifted - s, 0.0)
    return PdeProblem(s_grid=s, t_grid=grid, sigma=sigma, terminal=terminal, scale=scale)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def _operator_bands(sigma: float, dx: float):
    """Tridiagonal coefficients of L U = (1/2) sigma^2 (U_xx - U_x) in x = ln s."""
    diff = 0.5 * sigma**2 / dx**2
    conv = 0.5 * sigma**2 / (2.0 * dx)
    return diff + conv, -2.0 * diff, diff - conv


class _Lapack(NamedTuple):
    gttrf: Callable[..., None]
    gttrs: Callable[..., None]
    integer: type  # ctypes.c_int32 or ctypes.c_int64


def _lapack_libraries():
    """Libraries that may hold numpy's LAPACK, in the order they are searched.

    First numpy's linear-algebra extension: a symbol lookup in it searches
    the libraries it links on Linux and macOS.  Then the BLAS libraries a
    numpy wheel bundles, for Windows, where a lookup sees a library's own
    exports only.
    """
    yield _umath_linalg.__file__
    root = os.path.dirname(np.__file__)
    for bundled in (os.path.join(root, os.pardir, "numpy.libs"), os.path.join(root, ".dylibs")):
        if os.path.isdir(bundled):
            yield from (os.path.join(bundled, f) for f in sorted(os.listdir(bundled)) if "blas" in f)


@functools.cache
def _lapack() -> _Lapack:
    """LAPACK ``dgttrf`` and ``dgttrs`` of the libraries numpy links, bound on first use.

    The first library of :func:`_lapack_libraries` that exports a pair of
    ``_LAPACK_SYMBOLS`` gives the binding.  Every argument is passed by
    address; ``dgttrs`` takes the length of its TRANS string last.  Where
    no library has a pair this raises OSError naming the symbols.
    """
    for path in _lapack_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for factor_name, solve_name, integer in _LAPACK_SYMBOLS:
            gttrf = getattr(library, factor_name, None)
            gttrs = getattr(library, solve_name, None)
            if gttrf is not None and gttrs is not None:
                gttrf.argtypes = [ctypes.c_void_p] * 7
                gttrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
                gttrf.restype = gttrs.restype = None
                return _Lapack(gttrf, gttrs, integer)
    names = ", ".join(f"{f}/{s}" for f, s, _ in _LAPACK_SYMBOLS)
    raise OSError(f"numpy's libraries export no LAPACK dgttrf and dgttrs (looked for {names})")


def _require_vector(array: np.ndarray, size: int) -> None:
    # LAPACK reads and writes size doubles from the array's address
    if array.dtype != np.float64 or array.shape != (size,) or not array.flags.c_contiguous:
        raise ValueError(f"LAPACK needs a contiguous float64 vector of {size}")


def _gttrf(dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """LAPACK ``dgttrf``: LU-factor the tridiagonal matrix with bands dl, d, du in place.

    Returns the factors (dl, d, du, du2, ipiv) that :func:`_gttrs` solves
    with.  A singular matrix raises :class:`DegenerateProblem`.
    """
    n = d.size
    for band, size in ((dl, n - 1), (d, n), (du, n - 1)):
        _require_vector(band, size)
    lapack = _lapack()
    du2 = np.empty(max(n - 2, 0))
    ipiv = np.empty(n, dtype=lapack.integer)
    info = lapack.integer()
    lapack.gttrf(
        ctypes.byref(lapack.integer(n)), dl.ctypes.data, d.ctypes.data, du.ctypes.data,
        du2.ctypes.data, ipiv.ctypes.data, ctypes.byref(info),
    )
    if info.value != 0:
        raise DegenerateProblem("singular implicit step matrix")
    return dl, d, du, du2, ipiv


def _gttrs(factors, b: np.ndarray) -> Callable[[], None]:
    """LAPACK ``dgttrs`` bound to ``_gttrf`` factors and to b: each call overwrites b with M^-1 b.

    The addresses are taken here, once; the returned solve holds ``factors``
    and b, so the memory at those addresses lives as long as it does.
    """
    n = factors[1].size
    _require_vector(b, n)
    lapack = _lapack()
    size = ctypes.byref(lapack.integer(n))
    solve = functools.partial(
        lapack.gttrs, b"N", size, ctypes.byref(lapack.integer(1)),
        *(f.ctypes.data for f in factors), b.ctypes.data, size, ctypes.byref(lapack.integer()), 1,
    )
    solve.buffers = (factors, b)
    return solve


def _factor_implicit(lower: float, diag: float, upper: float, theta_dt: float, n: int):
    """LU factors of (I - theta_dt L) with identity rows at the Dirichlet ends."""
    dl = np.full(n - 1, -theta_dt * lower)
    d = np.full(n, 1.0 - theta_dt * diag)
    du = np.full(n - 1, -theta_dt * upper)
    dl[-1] = 0.0
    d[0] = d[-1] = 1.0
    du[0] = 0.0
    return _gttrf(dl, d, du)


def solve_today(problem: PdeProblem) -> OptionSlice:
    """Backward Crank-Nicolson solve of the zero-rate pricing equation: today's slice.

    The first ``RANNACHER_STEPS`` time steps run as pairs of implicit-Euler
    half steps; second-order accurate in space and time thereafter.  Every
    step solves with the matrix M = I - (dt/2) L, whose LU factors are
    reused until an interval's sigma differs from the previous one:
    a start-up step is two ``dgttrs`` solves, a Crank-Nicolson step one,
    v <- M^-1 (2v) - v with the Dirichlet data at the ends (module
    docstring).  Two price rows are held, so memory is O(n_s) for any
    number of steps.  The values are multiplied by ``problem.scale`` last.
    """
    s = problem.s_grid
    dx = _log_step(s)
    dt = problem.t_grid.dt
    half_dt = 0.5 * dt
    steps = problem.t_grid.steps
    n = s.size

    with np.errstate(all="ignore"):
        # refactor at the last interval and wherever sigma changes
        sig = problem.sigma
        refactor = np.ones(steps, dtype=bool)
        refactor[:-1] = sig[:-1] != sig[1:]

        # both rows are solved in place: their addresses hold for the whole
        # loop; the Dirichlet data are the terminal row's ends
        v = problem.terminal.copy()
        bc_lo, bc_hi = v[0].item(), v[-1].item()
        rhs = np.empty(n)
        for k in range(steps - 1, -1, -1):
            if refactor[k]:
                factors = _factor_implicit(*_operator_bands(sig[k], dx), half_dt, n)
                solve_v, solve_rhs = _gttrs(factors, v), _gttrs(factors, rhs)
            if steps - 1 - k < RANNACHER_STEPS:
                # Rannacher start-up: two implicit-Euler half steps
                for _ in range(2):
                    v[0], v[-1] = bc_lo, bc_hi
                    solve_v()
            else:
                # (I - hL)^-1 (I + hL) v = 2 (I - hL)^-1 v - v: solve for
                # w with right-hand side 2v, whose ends bc + v make the ends
                # of w - v the Dirichlet data, then set them to it exactly
                np.multiply(v, 2.0, out=rhs)
                rhs[0], rhs[-1] = bc_lo + v[0], bc_hi + v[-1]
                solve_rhs()
                np.subtract(rhs, v, out=v)
                v[0], v[-1] = bc_lo, bc_hi
        v *= problem.scale
    _require_finite(v)
    return OptionSlice(s_grid=problem.s_grid, t_grid=problem.t_grid, values=v)


def _require_finite(values: np.ndarray) -> None:
    # the steps run with floating-point warnings off, and an overflow leaves
    # inf or NaN in the result; two reductions, no result-sized temporary,
    # and a NaN makes both NaN
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise DegenerateProblem("non-finite option values: the coefficients overflow the solve")


def solve_primed_gauge(problem: PdeProblem, sigma_hat: float = 0.0) -> OptionSlice:
    """Solve with the finite-N volatility bump Sigma = sqrt(sigma^2 + sigma_hat^2).

    A problem is already in the primed A' = 0 gauge (module docstring), so
    this is :func:`solve_today` at Sigma.  The only effect of discounting
    with an approximately risk-free portfolio is this O(1/sqrt(N)) increase
    in volatility.
    """
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be nonnegative")
    return solve_today(replace(problem, sigma=np.hypot(problem.sigma, sigma_hat)))


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
