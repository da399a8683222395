"""Seeded Monte Carlo engine for environment-factor price processes.

Each asset follows the exact log-normal step

    s[k+1] = s[k] * exp((mu_i(xi_k) - sigma_i(xi_k)^2 / 2) dt
                        + sigma_i(xi_k) sqrt(dt) z)

with independent cross-asset noises.  Noise is drawn from SFC64 streams
(Doty-Humphrey's Small Fast Chaotic generator), one per key block of
``max(1, 2^18 // (steps * N))`` paths (about 2^18 cells, at least one path):
block b of seed s draws from the stream that
``SeedSequence([s, NOISE_KEY + b])`` seeds.  SFC64 draws faster than the
counter-based Philox, uniforms most of all.  Streams seeded through
SeedSequence's hash are distinct with overwhelming probability, not by
construction as keyed Philox streams are (numpy's "Parallel random number
generation" notes).  Every key block is an independent task.  Each Monte
Carlo routine runs its blocks through one executor, a lazy, bounded
:meth:`TaskPool.map` of ``n_jobs`` threads, and combines the per-block
results in block order, so results are bit-identical for any ``n_jobs``.
Every sample changed when SFC64 streams replaced the Philox keys
[s, NOISE_KEY + b], and once before, when the 2^18-cell blocks replaced one
stream per 512 paths keyed [s, b].

:func:`simulate`, :func:`terminal_prices`, the risk-free prefix reductions
and :func:`sample_joint_numeraire`, the one numeraire sampler, all run on
that executor, and a task holds one block of noise, transformed in place.
:func:`terminal_prices` multiplies each block along its steps and stores no
paths, so its memory grows with paths times assets, not with steps.  A
deterministic numeraire is the price-gauge rescaling,
:func:`gaugeport.gauge.apply_price_gauge`.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .grid import TimeGrid, require_same_grid

#: Cells per key block; a block holds max(1, BLOCK_CELLS // (steps * N))
#: paths.  Part of the seeding scheme: changing it changes the sample, so it
#: is a constant, not a tuning knob.
BLOCK_CELLS = 1 << 18

#: Noise block b of seed s draws from the SFC64 stream that
#: ``SeedSequence([s, NOISE_KEY + b])`` seeds.  Part of the seeding scheme,
#: like BLOCK_CELLS: changing it changes every sample.
NOISE_KEY = 2**62

NOISE_TAGS = ("normal", "uniform", "two-point")

#: Seeds are integers in [0, SEED_LIMIT).  SeedSequence takes any
#: non-negative seed, but the CLI also keys Philox streams [s, 0] and [s, 1]
#: with it, and numpy casts a Philox key word >= 2^63 through float64, where
#: such seeds would collide.
SEED_LIMIT = 2**63

_SQRT3 = np.sqrt(3.0)


def block_paths(steps: int, n_assets: int) -> int:
    """Paths per key block of a [steps, n_assets] noise stream."""
    return max(1, BLOCK_CELLS // (steps * n_assets))


def noise_block(
    seed: int, block: int, n_paths: int, steps: int, n_assets: int, noise: str
) -> np.ndarray:
    """Noise of key block ``block``, shape [n_paths, steps, n_assets].

    Drawn from one SFC64 stream seeded by ``SeedSequence([seed, NOISE_KEY +
    block])``, so a block's noise depends only on the seed and its index.
    """
    # the same seed keys the CLI's Philox streams: see SEED_LIMIT
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2^63), got {seed}")
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, NOISE_KEY + block])))
    shape = (n_paths, steps, n_assets)
    if noise == "normal":
        return gen.standard_normal(shape)
    if noise == "uniform":
        # U(-sqrt(3), sqrt(3)) has mean 0 and unit variance.
        return gen.uniform(-_SQRT3, _SQRT3, shape)
    if noise == "two-point":
        return gen.integers(0, 2, shape).astype(float) * 2.0 - 1.0
    raise ValueError(f"unknown noise tag {noise!r}; expected one of {NOISE_TAGS}")


class TaskPool:
    """Worker threads for independent Monte Carlo tasks.

    ``map(fn, tasks)`` returns ``[fn(*task) for task in tasks]`` in task
    order.  With ``n_jobs = 1`` the tasks run in the calling thread; otherwise
    ``n_jobs`` worker threads run them while the caller waits.  ``tasks`` may
    be any iterable and is consumed lazily, with at most ``2 * n_jobs``
    submitted tasks outstanding.  Tasks must not depend on one another, nor
    map on their own pool; then the results do not depend on which thread
    ran them.
    """

    def __init__(self, n_jobs: int = 1):
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self._window = 2 * n_jobs
        self._executor = ThreadPoolExecutor(n_jobs) if n_jobs > 1 else None

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def map(self, fn: Callable, tasks: Iterable[tuple]) -> list:
        if self._executor is None:
            return [fn(*task) for task in tasks]
        results: list = []
        pending: deque = deque()  # futures in submission order
        try:
            for task in tasks:
                pending.append(self._executor.submit(fn, *task))
                if len(pending) > self._window:
                    results.append(pending.popleft().result())
            while pending:
                results.append(pending.popleft().result())
            return results
        finally:
            for future in pending:  # after a failure, drop what has not started
                future.cancel()


@dataclass(frozen=True)
class EnvironmentSeries:
    """Deterministic environment factors xi(t), shared by all paths."""

    grid: TimeGrid
    xi: np.ndarray  # [steps+1, n_factors]

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim == 1:
            xi = xi[:, None]  # one factor
        object.__setattr__(self, "xi", xi)
        if xi.ndim != 2 or xi.shape[0] != self.grid.n_points:
            raise ValueError("xi must hold one factor vector per grid point")
        if not np.all(np.isfinite(xi)):
            raise ValueError("environment factors must be finite")

    @staticmethod
    def constant(grid: TimeGrid, value: float = 0.0, n_factors: int = 1) -> "EnvironmentSeries":
        return EnvironmentSeries(grid, np.full((grid.n_points, n_factors), value))


@dataclass(frozen=True)
class ProcessSpec:
    """Per-asset drift and volatility as array functions of the environment.

    ``mu(xi)`` and ``sigma(xi)`` map the factor rows ``xi`` [steps, n_factors]
    to drifts (1/yr) and volatilities (1/sqrt(yr)) of shape [steps, n_assets],
    or of any shape that broadcasts to it: a per-asset vector [n_assets], a
    per-step column [steps, 1], a scalar.  ``noise`` is one of
    :data:`NOISE_TAGS`, each a zero-mean, unit-variance law.
    """

    n_assets: int
    mu: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    noise: str = "normal"

    def __post_init__(self):
        if self.n_assets < 1:
            raise ValueError("n_assets must be >= 1")
        if self.noise not in NOISE_TAGS:
            raise ValueError(f"unknown noise tag {self.noise!r}; expected one of {NOISE_TAGS}")

    def _evaluate(self, fn: Callable, xi: np.ndarray) -> np.ndarray:
        # warnings off here and in StepKernel, as in the Monte Carlo tasks:
        # the callers check the paths and sums these values lead to for inf,
        # 0 and NaN
        with np.errstate(all="ignore"):
            values = np.asarray(fn(xi), dtype=float)
        shape = (xi.shape[0], self.n_assets)
        try:
            return np.broadcast_to(values, shape)
        except ValueError:
            raise ValueError(
                f"process function returned shape {values.shape}, not broadcastable to {shape}"
            ) from None

    def drift_matrix(self, env: EnvironmentSeries) -> np.ndarray:
        """mu[k, i] at interval left endpoints, shape [steps, n_assets]."""
        return self._evaluate(self.mu, env.xi[:-1])

    def vol_matrix(self, env: EnvironmentSeries) -> np.ndarray:
        """sigma[k, i] at interval left endpoints; rejects negative values."""
        sig = self._evaluate(self.sigma, env.xi[:-1])
        if np.any(sig < 0):
            raise ValueError("sigma returned a negative volatility")
        return sig


def constant_spec(
    n_assets: int, mu: Union[float, np.ndarray], sigma: Union[float, np.ndarray], noise: str = "normal"
) -> ProcessSpec:
    """ProcessSpec with environment-independent per-asset mu and sigma."""
    mu_arr = np.broadcast_to(np.asarray(mu, dtype=float), (n_assets,)).copy()
    sigma_arr = np.broadcast_to(np.asarray(sigma, dtype=float), (n_assets,)).copy()
    return ProcessSpec(n_assets, lambda xi: mu_arr, lambda xi: sigma_arr, noise)


class StepKernel:
    """Exact log-normal step of one process on one grid, applied to block noise.

    Holds the per-step terms (mu - sigma^2/2) dt and sigma sqrt(dt), each
    [steps, n_assets].  :meth:`gross` turns noise into gross step ratios
    inside the noise array, so a block costs one array of memory.
    """

    def __init__(self, mu: np.ndarray, sigma: np.ndarray, dt: float, noise: str):
        with np.errstate(all="ignore"):
            self.drift = (mu - 0.5 * sigma**2) * dt
            self.scale = sigma * np.sqrt(dt)
        self.noise = noise

    @classmethod
    def of(cls, spec: ProcessSpec, env: EnvironmentSeries, grid: TimeGrid) -> "StepKernel":
        require_same_grid(env.grid, grid, "environment/grid")
        return cls(spec.drift_matrix(env), spec.vol_matrix(env), grid.dt, spec.noise)

    def gross(self, z: np.ndarray) -> np.ndarray:
        """Gross step ratios s[k+1]/s[k] of noise z [paths, steps, n_assets], in place."""
        z *= self.scale
        z += self.drift
        return np.exp(z, out=z)


@dataclass(frozen=True)
class PathSet:
    """Simulated price paths [n_paths, steps+1, n_assets] on a grid."""

    grid: TimeGrid
    paths: np.ndarray

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float)
        object.__setattr__(self, "paths", paths)
        if paths.ndim != 3 or paths.shape[1] != self.grid.n_points:
            raise ValueError("paths must be [n_paths, steps+1, n_assets]")
        # two reductions and no full-size temporaries; a NaN makes the min NaN
        if paths.size and not (paths.min() > 0 and np.isfinite(paths.max())):
            raise ValueError("paths must be finite and strictly positive")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _map_blocks(
    seed: int, n_paths: int, steps: int, n_assets: int, noise: str, n_jobs: int, fn: Callable
) -> list:
    """The one block executor: ``fn(first_path, z)`` on every key block.

    ``z`` is a key block's noise [paths, steps, n_assets], drawn in the
    task, and ``first_path`` the index of its first path among all
    ``n_paths``.  The blocks run as tasks of one lazy, bounded
    :meth:`TaskPool.map`, and the results come back in block order, so a
    result's position is its block index.
    Floating-point warnings are off inside a task: ``np.errstate`` does not
    cross threads, and the callers check for inf, 0 and NaN themselves.
    """
    size = block_paths(steps, n_assets)

    def task(block: int, first: int):
        z = noise_block(seed, block, min(size, n_paths - first), steps, n_assets, noise)
        with np.errstate(all="ignore"):
            return fn(first, z)

    with TaskPool(n_jobs) as pool:
        return pool.map(task, enumerate(range(0, n_paths, size)))


def _map_gross(kernel: StepKernel, seed: int, n_paths: int, n_jobs: int, fn: Callable) -> list:
    """``fn(first_path, ratios)`` on every key block's gross step ratios
    [paths, steps, N], formed in place in its noise; results in block order."""
    steps, n_assets = kernel.drift.shape
    return _map_blocks(
        seed, n_paths, steps, n_assets, kernel.noise, n_jobs,
        lambda first, z: fn(first, kernel.gross(z)),
    )


def _start(
    spec: ProcessSpec, env: EnvironmentSeries, grid: TimeGrid, n_paths: int,
    s0: Union[float, np.ndarray],
) -> tuple[StepKernel, np.ndarray]:
    """The step kernel and the per-asset initial prices, checked."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    kernel = StepKernel.of(spec, env, grid)
    s0 = np.broadcast_to(np.asarray(s0, dtype=float), (spec.n_assets,))
    if np.any(s0 <= 0):
        raise ValueError("initial prices must be strictly positive")
    return kernel, s0


def simulate(
    spec: ProcessSpec,
    env: EnvironmentSeries,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    s0: Union[float, np.ndarray] = 1.0,
    n_jobs: int = 1,
) -> PathSet:
    """Simulate asset price paths; bit-identical for any n_jobs."""
    kernel, s0 = _start(spec, env, grid, n_paths, s0)
    out = np.empty((n_paths, grid.n_points, spec.n_assets))
    out[:, 0, :] = s0

    def fill(first: int, ratios: np.ndarray) -> None:
        # cumprod along the steps as one multiply per step: the same products
        # in the same order as np.cumprod, without a temporary
        dest = out[first : first + len(ratios), 1:, :]
        dest[:, 0] = ratios[:, 0]
        for k in range(1, grid.steps):
            np.multiply(dest[:, k - 1], ratios[:, k], out=dest[:, k])
        dest *= s0

    _map_gross(kernel, seed, n_paths, n_jobs, fill)
    return PathSet(grid=grid, paths=out)


def terminal_prices(
    spec: ProcessSpec,
    env: EnvironmentSeries,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    s0: Union[float, np.ndarray] = 1.0,
    n_jobs: int = 1,
) -> np.ndarray:
    """Terminal prices [n_paths, n_assets], without storing the paths.

    Bit for bit ``simulate(...).paths[:, -1, :]`` for the same arguments:
    the same blocks of gross ratios are multiplied along the steps in the
    same order as :func:`simulate`'s per-step loop, then by ``s0``.  Memory
    is O(n_paths N) plus the blocks in flight.

    The check rejects exactly what :class:`PathSet` rejects, with the same
    message.  Each path value is s0 times a running product of ratios
    exp(.), which lie in [0, inf] or are NaN.  A 0, inf or NaN reached at
    any step stays 0, inf or NaN, or becomes NaN (0 * inf), up to the last
    step; so every value of a path is finite and > 0 exactly when its
    terminal value is.
    """
    kernel, s0 = _start(spec, env, grid, n_paths, s0)
    out = np.empty((n_paths, spec.n_assets))

    def multiply_steps(first: int, ratios: np.ndarray) -> None:
        np.multiply.reduce(ratios, axis=1, out=out[first : first + len(ratios)])

    _map_gross(kernel, seed, n_paths, n_jobs, multiply_steps)
    out *= s0
    # a NaN makes the min NaN
    if not (out.min() > 0 and np.isfinite(out.max())):
        raise ValueError("paths must be finite and strictly positive")
    return out


def sample_joint_numeraire(
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    pi_mu: float,
    pi_sigma: float,
    phi_mu: float,
    phi_sigma: float,
    rho: float,
    n_jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly sample a numeraire Y and a portfolio Pi with correlated noise.

    Returns value arrays (y, pi), each [n_paths, steps+1], both starting at 1.
    """
    if not np.all(np.isfinite([pi_mu, pi_sigma, phi_mu, phi_sigma])):
        raise ValueError("drifts and volatilities must be finite")
    if pi_sigma < 0 or phi_sigma < 0:
        raise ValueError("negative volatility: pi_sigma and phi_sigma must be >= 0")
    if not abs(rho) <= 1.0:  # NaN fails this test
        raise ValueError(f"|rho| must be <= 1, got {rho}")
    # column 0 is Pi, column 1 is Y
    kernel = StepKernel(
        np.array([[pi_mu, phi_mu]]), np.array([[pi_sigma, phi_sigma]]), grid.dt, "normal"
    )
    y = np.ones((n_paths, grid.n_points))
    pi = np.ones((n_paths, grid.n_points))

    def fill(first: int, z: np.ndarray) -> None:
        z[:, :, 1] *= np.sqrt(1.0 - rho**2)
        z[:, :, 1] += rho * z[:, :, 0]
        ratios = kernel.gross(z)
        rows = slice(first, first + len(z))
        np.cumprod(ratios[:, :, 0], axis=1, out=pi[rows, 1:])
        np.cumprod(ratios[:, :, 1], axis=1, out=y[rows, 1:])

    _map_blocks(seed, n_paths, grid.steps, 2, "normal", n_jobs, fill)
    return y, pi


def cross_term(
    y_values: np.ndarray, pi_values: np.ndarray, horizon: float
) -> tuple[float, float]:
    """MC estimate of the quadratic covariation d<log Y, log Pi>/dt.

    Returns (estimate, standard error).  Inputs must be jointly sampled value
    arrays of identical shape [n_paths, steps+1].
    """
    y_values = np.asarray(y_values, dtype=float)
    pi_values = np.asarray(pi_values, dtype=float)
    if y_values.shape != pi_values.shape or y_values.ndim != 2:
        raise ValueError("Y and Pi samples must share the same [n_paths, steps+1] shape")
    if not 0 < horizon < np.inf:  # NaN fails this test
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    dy = np.diff(np.log(y_values), axis=1)
    dpi = np.diff(np.log(pi_values), axis=1)
    per_path = np.sum(dy * dpi, axis=1) / horizon
    n = per_path.shape[0]
    return float(per_path.mean()), float(per_path.std(ddof=1) / np.sqrt(n))


def return_volatility(samples: np.ndarray) -> float:
    """Volatility of a return stream: std of the samples about their mean.

    ``samples`` is [n_samples] or [n_samples, n_intervals]; cross-sample
    variance is computed per interval and aggregated as a root mean square,
    which makes deterministic gauge shifts cancel exactly.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples to estimate volatility")
    var = np.var(samples, axis=0)
    return float(np.sqrt(np.mean(var)))
