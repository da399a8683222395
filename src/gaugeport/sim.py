"""Seeded Monte Carlo engine for environment-factor price processes.

Each asset follows the exact log-normal step

    s[k+1] = s[k] * exp((mu_i(xi_k) - sigma_i(xi_k)^2 / 2) dt
                        + sigma_i(xi_k) sqrt(dt) z)

with independent cross-asset noises.  Noise is drawn from counter-based
Philox streams keyed by (seed, path block), so every path block is an
independent task.  Each Monte Carlo routine runs its blocks on a
:class:`TaskPool` of ``n_jobs`` threads and combines partial results in fixed
block order, so results are bit-identical for any ``n_jobs``.

A block's noise is drawn from its one generator as consecutive path
sub-blocks of at most ~2^18 cells (at least one path).  Philox draws in the
same order either way, so the samples are those of the whole block, while a
task holds a few sub-blocks instead of a [PATH_BLOCK, steps, N] array.
:func:`simulate` hands each sub-block's transform to the other workers, so
drawing and transforming overlap even within one block.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .grid import TimeGrid, require_same_grid

#: Paths per Philox stream.  Part of the seeding scheme: changing it changes
#: the sample, so it is a constant, not a tuning knob.
PATH_BLOCK = 512

NOISE_TAGS = ("normal", "uniform", "two-point")

#: Seeds are integers in [0, SEED_LIMIT).
SEED_LIMIT = 2**63

# Cells per noise sub-block (at least one path is drawn at a time).  Does not
# change the sample, only how much of a block is held at once.
_SUB_CELLS = 1 << 18

_SQRT3 = np.sqrt(3.0)


def _block_generator(seed: int, block: int) -> np.random.Generator:
    # 128-bit Philox key: the seed in the first word, the block in the second;
    # numpy casts a word >= 2^63 through float64, so such seeds would collide
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2^63), got {seed}")
    return np.random.Generator(np.random.Philox(key=[seed, block]))


def _draw(gen: np.random.Generator, shape: tuple, noise: str) -> np.ndarray:
    if noise == "normal":
        return gen.standard_normal(shape)
    if noise == "uniform":
        # U(-sqrt(3), sqrt(3)) has mean 0 and unit variance.
        return gen.uniform(-_SQRT3, _SQRT3, shape)
    if noise == "two-point":
        return gen.integers(0, 2, shape).astype(float) * 2.0 - 1.0
    raise ValueError(f"unknown noise tag {noise!r}; expected one of {NOISE_TAGS}")


def noise_block(
    seed: int, block: int, n_paths: int, steps: int, n_assets: int, noise: str
) -> np.ndarray:
    """Noise for one path block, shape [n_paths, steps, n_assets]."""
    gen = _block_generator(seed, block)
    return _draw(gen, (n_paths, steps, n_assets), noise)


def noise_sub_blocks(
    seed: int, block: int, n_paths: int, steps: int, n_assets: int, noise: str
) -> Iterator[tuple[int, np.ndarray]]:
    """One path block's noise as consecutive sub-blocks (first path, noise).

    Drawn in order from the block's one generator, so the sub-blocks
    concatenate to :func:`noise_block` bit for bit.
    """
    gen = _block_generator(seed, block)
    sub = max(1, _SUB_CELLS // (steps * n_assets))
    for first in range(0, n_paths, sub):
        yield first, _draw(gen, (min(sub, n_paths - first), steps, n_assets), noise)


def iter_blocks(n_paths: int) -> Iterator[tuple[int, int, int]]:
    """Yield (block index, start path, block length) covering n_paths."""
    for block, start in enumerate(range(0, n_paths, PATH_BLOCK)):
        yield block, start, min(PATH_BLOCK, n_paths - start)


def _run_slot(fn: Callable, slot: list):
    # the task leaves the slot when it starts, so a cancelled work item still
    # waiting in the executor queue holds no reference to its arguments
    return fn(*slot.pop())


class TaskPool:
    """Worker threads for independent Monte Carlo tasks, shared by nested maps.

    ``map(fn, tasks)`` returns ``[fn(*task) for task in tasks]`` in task
    order.  With ``n_jobs = 1`` the tasks run in the calling thread; otherwise
    ``n_jobs`` worker threads run them while a caller outside the pool waits.
    ``tasks`` may be any iterable and is consumed lazily, with at most
    ``2 * n_jobs`` submitted tasks outstanding, so a generator that produces
    large arguments keeps only a few of them alive.  A task may map on its
    own pool: its worker runs every subtask that no other worker has started
    yet and waits only on running ones, so nested maps cannot deadlock, and
    the subtasks of two concurrent tasks share the same threads.  Tasks must
    not depend on one another; then the results do not depend on which
    thread ran them.
    """

    def __init__(self, n_jobs: int = 1):
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        self._in_worker = threading.local()
        self._window = 2 * n_jobs
        self._executor = (
            ThreadPoolExecutor(n_jobs, initializer=self._mark_worker) if n_jobs > 1 else None
        )

    def _mark_worker(self) -> None:
        self._in_worker.flag = True

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
        nested = getattr(self._in_worker, "flag", False)
        results: list = []
        pending: deque = deque()  # (result index, future, slot) in submission order
        try:
            for task in tasks:
                slot = [task]
                del task  # only the slot holds the task until it starts
                pending.append((len(results), self._executor.submit(_run_slot, fn, slot), slot))
                results.append(None)
                while len(pending) > self._window:
                    self._settle(fn, pending, results, nested)
            while pending:
                self._settle(fn, pending, results, nested)
            return results
        finally:
            for _index, future, slot in pending:  # after a failure, drop what has not started
                if future.cancel():
                    slot.clear()

    @staticmethod
    def _settle(fn: Callable, pending: deque, results: list, nested: bool) -> None:
        """Finish one pending task.

        A worker runs the oldest task no thread has started yet itself; a
        caller outside the pool, or a worker whose tasks have all started,
        waits for the oldest.
        """
        if nested and not pending[0][1].done():
            for i, (index, future, slot) in enumerate(pending):
                if future.cancel():
                    del pending[i]
                    results[index] = _run_slot(fn, slot)
                    return
        index, future, _slot = pending.popleft()
        results[index] = future.result()


@dataclass(frozen=True)
class EnvironmentSeries:
    """Deterministic environment factors xi(t), shared by all paths."""

    grid: TimeGrid
    xi: np.ndarray  # [steps+1, n_factors]

    def __post_init__(self):
        xi = np.atleast_2d(np.asarray(self.xi, dtype=float))
        if xi.shape[0] == 1 and self.grid.n_points > 1:
            xi = xi.T
        object.__setattr__(self, "xi", xi)
        if xi.shape[0] != self.grid.n_points:
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
    """Exact log-normal step of one process on one grid, applied to Philox noise.

    Holds the per-step terms (mu - sigma^2/2) dt and sigma sqrt(dt), each
    [steps, n_assets].  :meth:`sub_blocks` draws a path block's noise as
    consecutive sub-blocks and :meth:`gross` turns noise into gross step
    ratios inside the noise array, so a sub-block costs one array of memory.
    """

    def __init__(self, mu: np.ndarray, sigma: np.ndarray, dt: float, noise: str):
        self.drift = (mu - 0.5 * sigma**2) * dt
        self.scale = sigma * np.sqrt(dt)
        self.noise = noise

    @classmethod
    def of(cls, spec: ProcessSpec, env: EnvironmentSeries, grid: TimeGrid) -> "StepKernel":
        require_same_grid(env.grid, grid, "environment/grid")
        return cls(spec.drift_matrix(env), spec.vol_matrix(env), grid.dt, spec.noise)

    def sub_blocks(self, seed: int, block: int, size: int) -> Iterator[tuple[int, np.ndarray]]:
        """Noise of one path block as (first path, [sub, steps, n_assets]) pairs."""
        return noise_sub_blocks(seed, block, size, *self.drift.shape, self.noise)

    def gross(self, z: np.ndarray) -> np.ndarray:
        """Gross step ratios s[k+1]/s[k] of noise z [paths, steps, n_assets], in place."""
        z *= self.scale
        z += self.drift
        return np.exp(z, out=z)


@dataclass(frozen=True)
class PathSet:
    """Simulated price paths [n_paths, steps+1, n_assets] plus provenance."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int
    noise: str = "normal"

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float)
        object.__setattr__(self, "paths", paths)
        if paths.ndim != 3 or paths.shape[1] != self.grid.n_points:
            raise ValueError("paths must be [n_paths, steps+1, n_assets]")
        # two reductions and no full-size temporaries; a NaN makes the min NaN
        if paths.size and not (paths.min() > 0 and np.isfinite(paths.max())):
            raise ValueError("paths must be finite and strictly positive")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_assets(self) -> int:
        return self.paths.shape[2]


@dataclass(frozen=True)
class NumeraireSpec:
    """Possibly stochastic rescaling Y = e^phi with d phi correlated to assets.

    ``rho[i]`` is the correlation between the numeraire noise and asset i's
    noise.  With phi_sigma = 0 (the default) Y is deterministic and the
    rescaling reduces to the price-gauge transformation.
    """

    phi_mu: Union[float, np.ndarray]
    phi_sigma: float = 0.0
    rho: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.phi_sigma < 0:
            raise ValueError("phi_sigma must be >= 0")
        if self.rho is not None:
            rho = np.asarray(self.rho, dtype=float)
            object.__setattr__(self, "rho", rho)
            if np.any(np.abs(rho) > 1.0):
                raise ValueError("|rho| must be <= 1 componentwise")
            if rho @ rho > 1.0 + 1e-12:
                raise ValueError("rho vector must satisfy sum(rho^2) <= 1")


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

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
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    kernel = StepKernel.of(spec, env, grid)
    s0 = np.broadcast_to(np.asarray(s0, dtype=float), (spec.n_assets,))
    if np.any(s0 <= 0):
        raise ValueError("initial prices must be strictly positive")

    out = np.empty((n_paths, grid.n_points, spec.n_assets))
    out[:, 0, :] = s0

    def fill(start: int, first: int, z: np.ndarray) -> None:
        # cumprod along the steps as one multiply per step: the same products
        # in the same order as np.cumprod, without a temporary
        ratios = kernel.gross(z)
        dest = out[start + first : start + first + len(z), 1:, :]
        dest[:, 0] = ratios[:, 0]
        for k in range(1, grid.steps):
            np.multiply(dest[:, k - 1], ratios[:, k], out=dest[:, k])
        dest *= s0

    with TaskPool(n_jobs) as pool:
        # the task that draws a block hands its sub-blocks to the pool
        def fill_block(block: int, start: int, size: int) -> None:
            pool.map(partial(fill, start), kernel.sub_blocks(seed, block, size))

        pool.map(fill_block, iter_blocks(n_paths))
    return PathSet(grid=grid, paths=out, seed=seed, noise=spec.noise)


@dataclass(frozen=True)
class PortfolioDynamics:
    """Realized portfolio return paths and volatility estimates."""

    grid: TimeGrid
    returns: np.ndarray  # [n_paths, steps], log-returns per unit time
    sigma_hat_realized: float
    sigma_hat_analytic: Optional[float] = None


def portfolio_dynamics(
    paths: PathSet, weights: np.ndarray, sigmas: Optional[np.ndarray] = None
) -> PortfolioDynamics:
    """Dynamics of the portfolio rebalanced to fixed weights every step.

    ``sigmas`` (constant per-asset volatilities, when known) enables the
    analytic sigma_hat = sqrt(sum w_i^2 sigma_i^2) alongside the realized
    estimate.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (paths.n_assets,):
        raise ValueError(
            f"weights length {weights.shape} does not match {paths.n_assets} assets"
        )
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to one")
    dt = paths.grid.dt
    ratios = paths.paths[:, 1:, :] / paths.paths[:, :-1, :]
    gross = ratios @ weights
    returns = np.log(gross) / dt
    sigma_real = float(np.std(np.log(gross))) / np.sqrt(dt)
    sigma_analytic = None
    if sigmas is not None:
        sigmas = np.asarray(sigmas, dtype=float)
        sigma_analytic = float(np.sqrt(np.sum(weights**2 * sigmas**2)))
    return PortfolioDynamics(paths.grid, returns, sigma_real, sigma_analytic)


def apply_numeraire(paths: PathSet, y: NumeraireSpec, seed2: int, n_jobs: int = 1) -> PathSet:
    """Rescale paths by a simulated numeraire factor Y, s' = Y s.

    With phi_sigma > 0 the numeraire noise is mixed from the asset noises
    (regenerated from the PathSet's seed) and an independent residual keyed
    by ``seed2``: dZ_phi = sum_i rho_i dZ_i + sqrt(1 - sum rho^2) dZ_res.
    With phi_sigma = 0, Y = exp(int phi_mu dt) is the price-gauge rescaling.
    """
    grid = paths.grid
    dt = grid.dt
    n_paths, steps = paths.n_paths, grid.steps
    phi_mu = np.broadcast_to(np.asarray(y.phi_mu, dtype=float), (steps,))
    rho = y.rho if y.rho is not None else np.zeros(paths.n_assets)
    if rho.shape != (paths.n_assets,):
        raise ValueError("rho must hold one correlation per asset")

    if y.phi_sigma == 0:
        log_y = np.concatenate([[0.0], np.cumsum(phi_mu * dt)])
        scaled = paths.paths * np.exp(log_y)[None, :, None]
        return PathSet(grid=grid, paths=scaled, seed=paths.seed, noise=paths.noise)

    resid_scale = np.sqrt(max(0.0, 1.0 - float(rho @ rho)))

    scaled = np.empty_like(paths.paths)

    def fill(block: int, start: int, size: int) -> None:
        z_resid = noise_block(seed2, block, size, steps, 1, "normal")[:, :, 0]
        sub_blocks = noise_sub_blocks(paths.seed, block, size, steps, paths.n_assets, paths.noise)
        for first, z_assets in sub_blocks:
            rows = slice(first, first + len(z_assets))
            z_phi = z_assets @ rho + resid_scale * z_resid[rows]
            inc = (phi_mu - 0.5 * y.phi_sigma**2) * dt + y.phi_sigma * np.sqrt(dt) * z_phi
            log_y = np.concatenate([np.zeros((len(z_phi), 1)), np.cumsum(inc, axis=1)], axis=1)
            sl = slice(start + first, start + first + len(z_phi))
            scaled[sl] = paths.paths[sl] * np.exp(log_y)[:, :, None]

    with TaskPool(n_jobs) as pool:
        pool.map(fill, iter_blocks(n_paths))
    return PathSet(grid=grid, paths=scaled, seed=paths.seed, noise=paths.noise)


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
    if abs(rho) > 1.0:
        raise ValueError("|rho| must be <= 1")
    dt = grid.dt
    steps = grid.steps
    y = np.empty((n_paths, grid.n_points))
    pi = np.empty((n_paths, grid.n_points))
    pi[:, 0] = 1.0
    y[:, 0] = 1.0

    def fill(block: int, start: int, size: int) -> None:
        z = noise_block(seed, block, size, steps, 2, "normal")
        z_pi = z[:, :, 0]
        z_y = rho * z_pi + np.sqrt(1.0 - rho**2) * z[:, :, 1]
        inc_pi = (pi_mu - 0.5 * pi_sigma**2) * dt + pi_sigma * np.sqrt(dt) * z_pi
        inc_y = (phi_mu - 0.5 * phi_sigma**2) * dt + phi_sigma * np.sqrt(dt) * z_y
        sl = slice(start, start + size)
        pi[sl, 1:] = np.exp(np.cumsum(inc_pi, axis=1))
        y[sl, 1:] = np.exp(np.cumsum(inc_y, axis=1))

    with TaskPool(n_jobs) as pool:
        pool.map(fill, iter_blocks(n_paths))
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
    if horizon <= 0:
        raise ValueError("horizon must be positive")
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
