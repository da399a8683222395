"""Approximately risk-free portfolios and market gauge extraction.

A diversified portfolio rebalanced to fixed positive weights defines the
market gauge A(t) = -d/dt ln(s.q) and the trade-unit field B_N = q_dot/q,
a diagonal :class:`GaugeFieldB`, so extraction memory grows as O(steps N).
The module also verifies the 1/sqrt(N) decay of portfolio volatility, and
solves for weights whose expected return is insensitive to forecasting
errors in the environment factors: accelerated projected gradient over the
capped simplex, with an exact sort-based projection.  A Frank-Wolfe duality gap <= GAP_TOL * residual certifies the
result (stop reason ``"gap"``): the residual is within GAP_TOL of the optimum.

:func:`riskfree_studies` runs the volatility-scaling and common-limit
studies in one pass over one draw of the largest universe: every size is a
nested prefix of it, so the per-size estimates are correlated, not
independent points, and the equal-weight portfolio serves both studies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gauge import GaugeFieldA, GaugeFieldB, PricePanel
from .grid import TimeGrid, require_same_grid
from .sim import (
    EnvironmentSeries, ProcessSpec, StepKernel, _map_gross, _merge_moments, _moments,
)

#: Diversification cap: risk-free weights must satisfy w_i <= DIVERSIFICATION_C / N.
DIVERSIFICATION_C = 4.0

#: How far the weights of a WeightVector may sum from one.
WEIGHT_SUM_TOL = 1e-12

#: projected_gradient stops once no weight moves by more than this in an iteration.
MOVE_TOL = 1e-12

#: projected_gradient stops once the best iterate's Frank-Wolfe gap is at most
#: GAP_TOL times its residual: that residual is then within GAP_TOL of the optimum.
GAP_TOL = 1e-6

#: sensitivity_neutral_weights runs at most MAX_ITER projected-gradient
#: iterations and calls its weights exact when ||w^T dmu_dxi|| <= NEUTRAL_TOL.
MAX_ITER = 2000
NEUTRAL_TOL = 1e-8


@dataclass(frozen=True)
class WeightVector:
    """Portfolio weights summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")

    @property
    def n(self) -> int:
        return self.w.size

    def require_riskfree(self) -> None:
        """Enforce long-only, unlevered, O(1/N)-diluted weights."""
        if np.any(self.w <= 0):
            raise ValueError("risk-free candidacy requires strictly positive weights")
        c = DIVERSIFICATION_C
        if self.w.max() > c / self.n + 1e-15:
            raise ValueError(
                f"risk-free candidacy requires max weight <= {c}/N = {c / self.n:g}"
            )

    @staticmethod
    def equal(n: int) -> "WeightVector":
        return WeightVector(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class MarketGaugeResult:
    """Extracted gauge fields and the generating portfolio's value path.

    ``b`` holds B_N as q_dot^i / q^i per asset and interval.
    """

    a: GaugeFieldA
    b: GaugeFieldB
    portfolio_value_series: np.ndarray  # [steps+1]
    quantities: np.ndarray  # [steps+1, N], holdings after each rebalance


@dataclass(frozen=True)
class SensitivityProblem:
    """Drift-gradient data for the sensitivity-neutral weight search."""

    dmu_dxi: np.ndarray  # [N, n_factors]
    cap: float

    def __post_init__(self):
        g = np.asarray(self.dmu_dxi, dtype=float)
        if g.ndim == 1:
            g = g[:, None]  # one factor
        if g.ndim != 2:
            raise ValueError("drift gradients must be an [N, n_factors] array")
        object.__setattr__(self, "dmu_dxi", g)
        if not np.all(np.isfinite(g)):
            raise ValueError("drift gradients must be finite")
        n = g.shape[0]
        if g.shape[1] >= n:
            raise ValueError("need n_factors < N")
        if not (0 < self.cap < np.inf and n * self.cap >= 1.0 - 1e-12):  # NaN fails this test
            raise ValueError("infeasible constraints: need finite cap > 0 and N*cap >= 1")

    @property
    def n(self) -> int:
        return self.dmu_dxi.shape[0]


# ---------------------------------------------------------------------------
# Market gauge extraction
# ---------------------------------------------------------------------------

def rebalanced_quantities(panel: PricePanel, w: WeightVector) -> tuple[np.ndarray, np.ndarray]:
    """Holdings and value path, from 1, of a portfolio rebalanced to w each step.

    q[k] = w * Pi[k] / s[k] immediately after the step-k rebalance;
    Pi[k+1] = s[k+1] . q[k].  Rebalancing is cost neutral at current prices.
    """
    if w.n != panel.n_assets:
        raise ValueError("weight length does not match the panel")
    n_points = panel.grid.n_points
    values = np.empty(n_points)
    quantities = np.empty_like(panel.prices)
    values[0] = 1.0
    for k in range(n_points):
        quantities[k] = w.w * values[k] / panel.prices[k]
        if k + 1 < n_points:
            values[k + 1] = panel.prices[k + 1] @ quantities[k]
    if np.any(values <= 0):
        raise ValueError("portfolio value hit zero or below")
    return quantities, values


def extract_market_gauge(panel: PricePanel, w: WeightVector) -> MarketGaugeResult:
    """Market gauge A = -d/dt ln(s.q) and diagonal B_N = q_dot/q.

    With vector holdings the defining relation s.q_dot = s.B_N.q is
    under-determined and the diagonal entries q_dot^i / q^i are its minimal
    solution, so memory is O(steps N).
    """
    quantities, values = rebalanced_quantities(panel, w)
    grid = panel.grid
    a = GaugeFieldA(grid, -grid.rate(np.log(values)))
    # q_dot / q, divided in place
    b = grid.rate(quantities)
    b /= quantities[:-1]
    return MarketGaugeResult(
        a=a, b=GaugeFieldB(grid, b), portfolio_value_series=values, quantities=quantities
    )


def balance_residuals(panel: PricePanel, result: MarketGaugeResult) -> tuple[np.ndarray, np.ndarray]:
    """Discrete self-financing/constancy balances for an extracted gauge.

    Returns (r_constancy, r_selffinancing) per interval:

        r_constancy[k]     = s_dot.q + A_arith * s.q + s.B_N.q
        r_selffinancing[k] = s.q_dot - s.B_N.q

    with forward differences, holdings q[k], prices s[k+1] in the trade
    terms, and A converted to the arithmetic rate (1 - e^{-A dt})/dt implied
    by the stored log-rate.  Both vanish identically for rebalanced
    portfolios.
    """
    grid = panel.grid
    s = panel.prices
    q = result.quantities
    values = result.portfolio_value_series
    s_dot = grid.rate(s)
    q_dot = grid.rate(q)
    # s.B_N.q with the diagonal field reduces to s . (B_N * q).
    s_bq = np.einsum("ki,ki->k", s[1:], result.b.diag * q[:-1])
    s_qdot = np.einsum("ki,ki->k", s[1:], q_dot)
    a_arith = (1.0 - np.exp(-result.a.a * grid.dt)) / grid.dt
    r_constancy = (
        np.einsum("ki,ki->k", s_dot, q[:-1]) + a_arith * values[:-1] + s_bq
    )
    r_selffinancing = s_qdot - s_bq
    return r_constancy, r_selffinancing


def to_riskfree_units(panel: PricePanel, riskfree_values: np.ndarray) -> PricePanel:
    """Quote every price in units of the risk-free portfolio (A' = 0 gauge)."""
    riskfree_values = np.asarray(riskfree_values, dtype=float)
    if riskfree_values.shape != (panel.grid.n_points,):
        raise ValueError("risk-free value series must cover the panel grid")
    if np.any(riskfree_values <= 0):
        raise ValueError("risk-free value series must be strictly positive")
    return PricePanel(
        grid=panel.grid,
        prices=panel.prices / riskfree_values[:, None],
        quantities=panel.quantities,
        asset_ids=panel.asset_ids,
    )


# ---------------------------------------------------------------------------
# Risk-free studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskfreeStudy:
    """Volatility scaling of the equal-weight portfolio and its common limit."""

    sizes: tuple[int, ...]
    sigma_hats: np.ndarray  # annualized std of per-step log-returns per size
    slope: float  # fitted d log sigma_hat / d log N
    analytic_sigma_hats: np.ndarray
    analytic_slope: float
    divergences: np.ndarray  # |mean cumulative log-return, equal - weights| per size


def _check_sizes(sizes: Sequence[int], n_assets: int, n_paths: int) -> tuple:
    """Universe sizes as a tuple of at least 4 strictly increasing integers in [1, n_assets]."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    sizes = tuple(operator.index(n) for n in sizes)
    if len(sizes) < 4 or sizes[0] < 1 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("need at least 4 strictly increasing positive universe sizes")
    if sizes[-1] > n_assets:
        raise ValueError(f"largest universe size {sizes[-1]} exceeds the {n_assets} assets")
    return sizes


def _prefix_log_return_moments(
    spec: ProcessSpec, env: EnvironmentSeries, grid: TimeGrid, rows: Sequence[np.ndarray],
    sizes: tuple, n_paths: int, seed: int, n_jobs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum and M2 (sum of squared deviations from the mean) of per-step
    portfolio log-returns, each [row, size].

    Row r's portfolio on the first n assets holds rows[r][:n], renormalized.
    One draw of the first max(sizes) assets on ``seed`` serves every row and
    size; per row, einsum segment sums between consecutive sizes (no BLAS, so
    no BLAS threads start beside the workers), a cumulative sum and a divide
    by the prefix weight totals.  Each key block's task writes the segment
    sums of its noise chunks into its own log-return array, then sums it and
    takes its M2 about its own mean.  The block sums are added and the block
    moments merged (Chan-Golub-LeVeque) in block order: the results depend
    on neither the thread count nor the other rows.
    """
    n_max = sizes[-1]
    require_same_grid(env.grid, grid, "environment/grid")
    kernel = StepKernel(
        spec.drift_matrix(env)[:, :n_max], spec.vol_matrix(env)[:, :n_max], grid.dt, spec.noise
    )
    starts = (0,) + sizes[:-1]
    prefix_totals = [np.cumsum(np.add.reduceat(w[:n_max], starts)) for w in rows]

    def block_moments(first: int, n: int, chunks) -> tuple:
        # [row, size, path * step], so each prefix's log-returns are contiguous
        logret = np.empty((len(rows), len(sizes), n * grid.steps))
        for path, step, ratios in chunks:
            at = (path - first) * grid.steps + step
            cells = slice(at, at + ratios.shape[0] * ratios.shape[1])
            ratios = ratios.reshape(-1, n_max)  # [path * step, asset]
            for out, w in zip(logret, rows):
                for j, (lo, hi) in enumerate(zip(starts, sizes)):
                    np.einsum("ij,j->i", ratios[:, lo:hi], w[lo:hi], out=out[j, cells])
        for out, totals in zip(logret, prefix_totals):
            np.cumsum(out, axis=0, out=out)
            out /= totals[:, None]
            np.log(out, out=out)
        return logret.sum(axis=2), _moments(logret, axis=2)

    total, moments = 0, (0, 0.0, 0.0)
    with np.errstate(all="ignore"):  # the callers check for inf and NaN
        for block_total, block in _map_gross(kernel, seed, n_paths, n_jobs, block_moments):
            total = total + block_total
            moments = _merge_moments(moments, block)
    return total, moments[2]


def riskfree_studies(
    spec: ProcessSpec, env: EnvironmentSeries, grid: TimeGrid, weights: WeightVector,
    sizes: Sequence[int], n_paths: int, seed: int, n_jobs: int = 1,
) -> RiskfreeStudy:
    """Volatility scaling and common limit of nested prefix universes, from one draw.

    sigma_hat is the pooled std of the equal-weight portfolio's per-step
    log-returns, annualized, from per-block moments merged by
    Chan-Golub-LeVeque, and ``slope`` fits log sigma_hat against log N.
    The analytic slope comes from sigma_hat^2 = sum w_i^2 sigma_i^2 with the
    volatilities evaluated at the initial environment.  ``divergences`` are
    the gaps between the mean cumulative log-returns of the equal-weight
    portfolio and of ``weights``, renormalized within each prefix: all
    positive-weight diversified averages share one limit, so they must decay
    with N.  The universes are nested prefixes of one draw of the first
    max(sizes) assets on ``seed``, so the per-size estimates are correlated,
    not independent points.  The results do not depend on ``n_jobs``.
    """
    sizes = _check_sizes(sizes, spec.n_assets, n_paths)
    if np.any(weights.w <= 0):
        raise ValueError("weights must be strictly positive (no shorts, no leverage)")
    if weights.n != spec.n_assets:
        raise ValueError("weight length does not match the asset universe")
    equal = np.full(sizes[-1], 1.0 / sizes[-1])
    total, m2 = _prefix_log_return_moments(
        spec, env, grid, [equal, weights.w], sizes, n_paths, seed, n_jobs
    )
    count = n_paths * grid.steps
    sigma = spec.vol_matrix(env)[0]
    # inf, 0 and NaN sums are left out of the fit, and too few points raise
    with np.errstate(all="ignore"):
        analytic = np.array([np.sqrt(np.sum((sigma[:n] / n) ** 2)) for n in sizes])
        sigma_hats = np.sqrt(m2[0] / count) / np.sqrt(grid.dt)
        finite = np.isfinite(np.log(sigma_hats))
    if finite.sum() < 3:
        raise ValueError("degenerate fit: fewer than 3 finite points")
    slope, _ = np.polyfit(np.log(np.array(sizes)[finite]), np.log(sigma_hats[finite]), 1)
    analytic_slope, _ = np.polyfit(np.log(sizes), np.log(analytic), 1)
    cum_equal, cum_weights = total / n_paths
    return RiskfreeStudy(
        sizes=sizes,
        sigma_hats=sigma_hats,
        slope=float(slope),
        analytic_sigma_hats=analytic,
        analytic_slope=float(analytic_slope),
        divergences=np.abs(cum_equal - cum_weights),
    )


# ---------------------------------------------------------------------------
# Sensitivity-neutral weights
# ---------------------------------------------------------------------------

def project_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {w : sum w = 1, 0 <= w <= cap}.

    Exact sort-based solve for the shift tau in w = clip(v - tau, 0, cap)
    (Wang & Lu, "Projection onto the capped simplex", arXiv:1503.01002).
    S(tau) = sum clip(v - tau, 0, cap) is piecewise linear and nonincreasing
    with breakpoints v_i (w_i leaves 0) and v_i - cap (w_i reaches cap).
    Walking the 2N sorted breakpoints downward, the slope between two of them
    is minus the number of weights strictly inside (0, cap); prefix sums of
    slope times width give S at every breakpoint and bracket S = 1.  Inside
    the bracket the capped and free weights are fixed, and tau solves
    n_capped * cap + sum_free (v_i - tau) = 1.  O(N log N).

    For |v| >> 1, tau and every v - tau are rounded on the ulp grid of v, so
    the free weights can miss their share by a few ulp(v) each.  When the sum
    misses 1 by more than ``WEIGHT_SUM_TOL``, the free weights are shifted
    once more, on their own O(1) values, to the share the others leave them.
    """
    v = np.asarray(v, dtype=float)
    w = _shift_clip(v, cap, 1.0)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        free = (w > 0.0) & (w < cap)
        w[free] = _shift_clip(w[free], cap, 1.0 - w[~free].sum())
    return w


def _shift_clip(v: np.ndarray, cap: float, total: float) -> np.ndarray:
    """clip(v - tau, 0, cap) with the tau that makes it sum to ``total``."""
    n = v.size
    points = np.concatenate([v, v - cap])
    order = np.argsort(points)[::-1]
    breaks = points[order]
    # +1 where a weight leaves 0, -1 where one reaches the cap
    inside = np.cumsum(np.where(order < n, 1, -1))
    s_at = np.zeros(2 * n)
    np.cumsum(inside[:-1] * (breaks[:-1] - breaks[1:]), out=s_at[1:])
    j = int(np.searchsorted(s_at, total))
    if j == 2 * n:
        # S never reaches the total: n * cap rounds to just below it, so
        # every weight sits at the cap
        return np.full(n, float(cap))
    # S crosses the total for tau between lo = breaks[j] and hi = breaks[j - 1]
    lo, hi = breaks[j], breaks[j - 1]
    v_capped = points[n:]
    free = (v >= hi) & (v_capped <= lo)
    n_capped = np.count_nonzero(v_capped >= hi)
    tau = (v[free].sum() - (total - n_capped * cap)) / inside[j - 1]
    return np.clip(v - tau, 0.0, cap)


def _residual(g: np.ndarray, w: np.ndarray) -> float:
    return float(np.linalg.norm(g.T @ w))


def _affine_polish(g: np.ndarray, w: np.ndarray, cap: float) -> Optional[np.ndarray]:
    """Minimal-distance projection of w onto {sum w = 1, g^T w = 0}.

    Returns None when the projected point violates the box constraints.
    """
    n = g.shape[0]
    basis = np.column_stack([np.ones(n), g])  # constraints: basis^T w = (1, 0, ..)
    rhs = np.concatenate([[1.0], np.zeros(g.shape[1])])
    # w* = w - basis (basis^T basis)^+ (basis^T w - rhs)
    gram = basis.T @ basis
    correction = basis @ np.linalg.lstsq(gram, basis.T @ w - rhs, rcond=None)[0]
    candidate = w - correction
    if np.all(candidate >= -1e-14) and np.all(candidate <= cap + 1e-14):
        return np.clip(candidate, 0.0, cap)
    return None


def projected_gradient(g: np.ndarray, w0: np.ndarray, cap: float) -> tuple[np.ndarray, int, str]:
    """Accelerated projected gradient for min ||g^T w||^2 over the capped simplex.

    Returns the best iterate, the number of iterations run and why the
    iterations stopped, tested in this order: ``"residual"`` (best residual
    below 1e-13), ``"move"`` (no weight moved by ``MOVE_TOL``), ``"gap"`` (see
    ``GAP_TOL``) or ``"max_iter"``.  The gap test only adds a stop.  Any
    feasible s bounds the gap below by 2 (|g^T w|^2 - <g^T w, g^T s>), so the
    gap is formed only when neither the start nor the last vertex rules it out.
    """
    g2 = 2.0 * g  # grad f(w) = g2 @ (g^T w)
    step = 1.0 / max(2.0 * np.linalg.norm(g, 2) ** 2, 1e-300)
    w = y = best = w0  # every iterate is a fresh array, never written in place
    t = 1.0
    best_res = _residual(g, w)
    gap = math.inf
    g_start = g_vertex = g.T @ w0
    iterations = 0
    reason = "max_iter"
    for iterations in range(1, MAX_ITER + 1):
        grad = g2 @ (g.T @ y)
        w_new = project_capped_simplex(y - step * grad, cap)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t**2))
        delta = w_new - w
        y = w_new + ((t - 1.0) / t_new) * delta
        move = np.abs(delta).max()
        w, t = w_new, t_new
        gw = g.T @ w
        sq = gw @ gw
        res = math.sqrt(sq)  # the bits of _residual: np.linalg.norm is sqrt(gw.dot(gw))
        if res < best_res:
            best, best_res, gap = w, res, math.inf
            floor = sq - 0.5 * GAP_TOL * res  # gap <= GAP_TOL res needs gw . g^T s >= floor
            if gw @ g_start >= floor and gw @ g_vertex >= floor:
                gap, vertex = _frank_wolfe_gap(g2 @ gw, w, cap)
                g_vertex = g.T @ vertex
        if best_res < 1e-13:
            reason = "residual"
            break
        if move < MOVE_TOL:
            reason = "move"
            break
        if gap <= GAP_TOL * best_res:
            reason = "gap"
            break
    return best, iterations, reason


def _frank_wolfe_gap(grad: np.ndarray, w: np.ndarray, cap: float) -> tuple[float, np.ndarray]:
    """Duality gap <grad, w - s> of f(w) = ||g^T w||^2 on the capped simplex, and s.

    grad is grad f(w).  s minimizes the linearization over the set: the most
    negative gradient entries filled up to the cap (Jaggi, ICML 2013).  By
    convexity the gap bounds f(w) - min f, so by gap / residual it bounds
    residual - optimum, since sqrt(f) - sqrt(min f) <= (f - min f) / sqrt(f).
    """
    n_full = min(int(1.0 / cap), grad.size)
    s = np.full_like(w, cap)
    if n_full < grad.size:
        order = np.argpartition(grad, n_full)
        s[order[n_full]] = 1.0 - n_full * cap
        s[order[n_full + 1 :]] = 0.0
    return float(grad @ (w - s)), s


@dataclass(frozen=True)
class SensitivityResult:
    weights: WeightVector
    residual: float
    exact: bool  # residual below the neutrality tolerance
    iterations: int  # projected-gradient iterations
    duality_gap: float  # Frank-Wolfe gap: residual - optimum <= min(residual, gap / residual)
    # why the solve stopped: "zero_gradient" (the start is already neutral, no
    # iterations) or projected_gradient's "residual", "move", "max_iter" or
    # "gap", which certifies residual - optimum <= GAP_TOL
    stop_reason: str


def sensitivity_neutral_weights(problem: SensitivityProblem) -> SensitivityResult:
    """Weights minimizing the drift sensitivity ||w^T dmu_dxi|| on the capped simplex.

    Deterministic initialization at equal weights, ``MAX_ITER`` iterations of
    accelerated projected gradient at most, then a final projection onto
    the exact-neutrality affine subspace when that projection stays feasible.
    The returned residual never exceeds the starting point's; the result
    carries the iteration count, the reason the iterations stopped and the
    Frank-Wolfe duality gap of the returned weights.  The polish only lowers
    a feasible residual, so a ``"gap"`` stop's certificate still holds.
    """
    g = problem.dmu_dxi
    n = problem.n
    w0 = project_capped_simplex(np.full(n, 1.0 / n), problem.cap)
    if _residual(g, w0) == 0.0:
        # zero residual means a zero gradient, so the gap is zero too
        return SensitivityResult(WeightVector(w0), 0.0, True, 0, 0.0, "zero_gradient")
    w, iterations, reason = projected_gradient(g, w0, problem.cap)
    polished = _affine_polish(g, w, problem.cap)
    if polished is not None:
        polished = project_capped_simplex(polished, problem.cap)
        if _residual(g, polished) < _residual(g, w):
            w = polished
    res = _residual(g, w)
    gap, _vertex = _frank_wolfe_gap(2.0 * g @ (g.T @ w), w, problem.cap)
    return SensitivityResult(WeightVector(w), res, res <= NEUTRAL_TOL, iterations, gap, reason)

