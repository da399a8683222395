"""Seeded Monte Carlo engine for log-normal price processes.

Each asset follows the exact log-normal step

    s[k+1] = s[k] * exp((mu[k, i] - sigma[k, i]^2 / 2) dt + sigma[k, i] sqrt(dt) z)

with independent cross-asset noises.  A :class:`ProcessSpec` holds mu and
sigma as arrays that broadcast to [steps, n_assets]; the catalog evaluates
a family's dependence on the environment factor xi when it builds one.

Noise is drawn from SFC64 streams (Doty-Humphrey's Small Fast Chaotic
generator), one per key block of ``max(1, 2^18 // (steps * N))`` paths
(about 2^18 cells, at least one path): block b of seed s draws from the
stream that ``SeedSequence([s, NOISE_KEY + b])`` seeds.  SFC64 draws faster than the
counter-based Philox, uniforms most of all.  Streams seeded through
SeedSequence's hash are distinct with overwhelming probability, not by
construction as keyed Philox streams are (numpy's "Parallel random number
generation" notes).  Every key block is an independent task.  Each Monte
Carlo routine runs its blocks through one executor, ``_map_blocks``, a
lazy, bounded map over ``n_jobs`` threads, and combines the per-block
results in block order, so results are bit-identical for any ``n_jobs``.
Every sample changed when SFC64 streams replaced the Philox keys
[s, NOISE_KEY + b], and once before, when the 2^18-cell blocks replaced one
stream per 512 paths keyed [s, b].

A task draws its key block in chunks of at most ``CHUNK_CELLS`` cells into
one buffer it reuses, turns each chunk into gross step ratios in place and
hands it to its consumer with its (path, step) offset.  A stream's draws
follow one another whatever the chunk size, so the samples do not depend
on it.  :func:`simulate`, :func:`terminal_stats`, the risk-free prefix
reductions and :func:`sample_joint_numeraire`, the one numeraire sampler,
all consume chunks on that executor.  :func:`terminal_stats` carries each
path's running product across its chunks and folds the terminal prices
into per-asset statistics block by block, so its memory grows with the
blocks in flight, not with paths or steps.  A deterministic numeraire is
the price-gauge rescaling, :func:`gaugeport.gauge.apply_price_gauge`.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .grid import TimeGrid

#: Cells per key block; a block holds max(1, BLOCK_CELLS // (steps * N))
#: paths.  Part of the seeding scheme: changing it changes the sample, so it
#: is a constant, not a tuning knob.
BLOCK_CELLS = 1 << 18

#: Noise block b of seed s draws from the SFC64 stream that
#: ``SeedSequence([s, NOISE_KEY + b])`` seeds.  Part of the seeding scheme,
#: like BLOCK_CELLS: changing it changes every sample.
NOISE_KEY = 2**62

#: Cells per noise chunk: a task draws its key block in chunks of at most
#: this many cells, whole paths when a path fits and otherwise part of one
#: path's steps (at least one step).  The chunks follow one another in the
#: block's stream, so no sample depends on it.
CHUNK_CELLS = 1 << 16

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


def chunk_shape(steps: int, n_assets: int) -> tuple[int, int]:
    """(paths, steps) of a full noise chunk of a [steps, n_assets] stream."""
    if steps * n_assets <= CHUNK_CELLS:
        return CHUNK_CELLS // (steps * n_assets), steps
    return 1, max(1, CHUNK_CELLS // n_assets)


def noise_stream(seed: int, block: int) -> np.random.Generator:
    """The generator of key block ``block``: SFC64 seeded by ``SeedSequence([seed,
    NOISE_KEY + block])``, so a block's noise depends only on the seed and its index."""
    # the same seed keys the CLI's Philox streams: see SEED_LIMIT
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2^63), got {seed}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, NOISE_KEY + block])))


def noise_block(gen: np.random.Generator, noise: str, out: np.ndarray) -> np.ndarray:
    """The next ``out.size`` draws of ``gen`` of one noise law, written to ``out``.

    ``out`` is a C-contiguous float array; a stream drawn in chunks gives
    the same values as drawn at once.
    """
    if noise == "normal":
        return gen.standard_normal(out=out)
    if noise == "uniform":
        # U(-sqrt(3), sqrt(3)) has mean 0 and unit variance; Generator.uniform
        # takes no out argument
        out[...] = gen.uniform(-_SQRT3, _SQRT3, out.shape)
    elif noise == "two-point":
        out[...] = gen.integers(0, 2, out.shape)
        out *= 2.0
        out -= 1.0
    else:
        raise ValueError(f"unknown noise tag {noise!r}; expected one of {NOISE_TAGS}")
    return out


@dataclass(frozen=True)
class ProcessSpec:
    """Per-asset drift (1/yr) and volatility (1/sqrt(yr)) as float arrays.

    ``mu`` and ``sigma`` broadcast to [steps, n_assets]: a scalar, a
    per-asset vector [n_assets], a per-step column [steps, 1] or the full
    matrix.  A model that depends on environment factors is evaluated
    before it gets here: :func:`gaugeport.catalog.build_process` evaluates
    each family at the config's ``xi``.  ``noise`` is one of
    :data:`NOISE_TAGS`, each a zero-mean, unit-variance law.
    """

    n_assets: int
    mu: np.ndarray
    sigma: np.ndarray
    noise: str = "normal"

    def __post_init__(self):
        if self.n_assets < 1:
            raise ValueError("n_assets must be >= 1")
        if self.noise not in NOISE_TAGS:
            raise ValueError(f"unknown noise tag {self.noise!r}; expected one of {NOISE_TAGS}")
        for name in ("mu", "sigma"):
            values = np.array(getattr(self, name), dtype=float)
            if values.ndim > 2 or values.shape[-1:] not in ((), (1,), (self.n_assets,)):
                raise ValueError(
                    f"{name} of shape {values.shape} does not broadcast to [steps, {self.n_assets}]: "
                    f"it needs at most 2 axes and a last axis of 1 or {self.n_assets}"
                )
            object.__setattr__(self, name, values)
        if np.any(self.sigma < 0):
            raise ValueError("sigma holds a negative volatility")

    def _matrix(self, name: str, grid: TimeGrid) -> np.ndarray:
        values, shape = getattr(self, name), (grid.steps, self.n_assets)
        try:
            return np.broadcast_to(values, shape)
        except ValueError:
            raise ValueError(
                f"{name} has shape {values.shape}, not broadcastable to {shape}"
            ) from None

    def drift_matrix(self, grid: TimeGrid) -> np.ndarray:
        """mu[k, i] of step k on ``grid``: a read-only [steps, n_assets] view."""
        return self._matrix("mu", grid)

    def vol_matrix(self, grid: TimeGrid) -> np.ndarray:
        """sigma[k, i] of step k on ``grid``: a read-only [steps, n_assets] view."""
        return self._matrix("sigma", grid)


def _unbroadcast(a: np.ndarray) -> np.ndarray:
    """The smallest view of ``a`` that broadcasts back to it: one row along
    every axis that ``np.broadcast_to`` repeats (stride 0)."""
    return a[tuple(slice(None) if stride else slice(0, 1) for stride in a.strides)]


class StepKernel:
    """Exact log-normal step of one process on one grid, applied to chunks of noise.

    Holds the per-step terms (mu - sigma^2/2) dt and sigma sqrt(dt) of a
    [steps, n_assets] process in the shape its values vary in: [1, n_assets]
    for per-asset constants, [steps, 1] for a per-step column, [steps,
    n_assets] in general.  :meth:`gross` broadcasts them over a chunk and
    turns its noise into gross step ratios in place, so a chunk costs no
    memory beyond itself.
    """

    def __init__(self, mu: np.ndarray, sigma: np.ndarray, dt: float, noise: str):
        mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
        self.steps, self.n_assets = np.broadcast_shapes(mu.shape, sigma.shape)
        mu, sigma = _unbroadcast(mu), _unbroadcast(sigma)
        with np.errstate(all="ignore"):
            self.drift = (mu - 0.5 * sigma**2) * dt
            self.scale = sigma * np.sqrt(dt)
        self.noise = noise

    @classmethod
    def of(cls, spec: ProcessSpec, grid: TimeGrid) -> "StepKernel":
        return cls(spec.drift_matrix(grid), spec.vol_matrix(grid), grid.dt, spec.noise)

    def gross(self, z: np.ndarray, step: int = 0) -> np.ndarray:
        """Gross step ratios s[k+1]/s[k] of noise z [paths, steps', n_assets]
        whose first step is ``step``, in place."""
        rows = slice(step, step + z.shape[1])
        z *= self.scale if len(self.scale) == 1 else self.scale[rows]
        z += self.drift if len(self.drift) == 1 else self.drift[rows]
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
) -> Iterator:
    """The one block executor: yields ``fn(first, n, chunks)`` of every key block, in block order.

    A key block holds ``n`` paths from path ``first`` on.  ``chunks``
    iterates over its noise as ``(path, step, z)``: z [paths, steps',
    n_assets] holds the noise of those paths from ``step`` on, whole paths
    or part of one path (:func:`chunk_shape`), in stream order.  Every
    chunk of a task is drawn into one buffer, so z is valid until the next
    chunk is drawn, and may be overwritten.  With ``n_jobs = 1`` the blocks
    run in the calling thread; otherwise ``n_jobs`` worker threads run
    them while the caller consumes the results, and blocks are submitted
    lazily, with at most ``2 * n_jobs`` of them outstanding, so the memory
    in flight stays bounded.  The blocks must not depend on one another;
    then the results do not depend on which thread ran them.
    Floating-point warnings are off inside a task: ``np.errstate`` does not
    cross threads, and the callers check for inf, 0 and NaN themselves.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    size = block_paths(steps, n_assets)
    chunk_paths, chunk_steps = chunk_shape(steps, n_assets)

    def task(block: int, first: int):
        n = min(size, n_paths - first)
        gen = noise_stream(seed, block)
        buffer = np.empty((min(chunk_paths, n), chunk_steps, n_assets))

        def chunks():
            for path in range(first, first + n, chunk_paths):
                for step in range(0, steps, chunk_steps):
                    z = buffer[: first + n - path, : steps - step]
                    yield path, step, noise_block(gen, noise, z)

        with np.errstate(all="ignore"):
            return fn(first, n, chunks())

    blocks = enumerate(range(0, n_paths, size))
    if n_jobs == 1:
        for block, first in blocks:
            yield task(block, first)
        return
    pending: deque = deque()  # futures in block order
    with ThreadPoolExecutor(n_jobs) as executor:
        try:
            for block, first in blocks:
                pending.append(executor.submit(task, block, first))
                if len(pending) > 2 * n_jobs:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:  # after a failure, drop what has not started
                future.cancel()


def _map_gross(kernel: StepKernel, seed: int, n_paths: int, n_jobs: int, fn: Callable) -> Iterator:
    """:func:`_map_blocks` with every chunk turned into gross step ratios, in place."""

    def gross(first: int, n: int, chunks: Iterator) -> object:
        return fn(first, n, ((path, step, kernel.gross(z, step)) for path, step, z in chunks))

    return _map_blocks(seed, n_paths, kernel.steps, kernel.n_assets, kernel.noise, n_jobs, gross)


def _kernel(spec: ProcessSpec, grid: TimeGrid, n_paths: int) -> StepKernel:
    """The step kernel of a run of ``n_paths`` paths, checked."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    return StepKernel.of(spec, grid)


def simulate(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    s0: Union[float, np.ndarray] = 1.0,
    n_jobs: int = 1,
) -> PathSet:
    """Simulate asset price paths; bit-identical for any n_jobs."""
    kernel = _kernel(spec, grid, n_paths)
    s0 = np.broadcast_to(np.asarray(s0, dtype=float), (spec.n_assets,))
    if np.any(s0 <= 0):
        raise ValueError("initial prices must be strictly positive")
    out = np.empty((n_paths, grid.n_points, spec.n_assets))
    out[:, 0, :] = 1.0

    def fill(first: int, n: int, chunks: Iterator) -> None:
        # cumprod along the steps from the value the chunk before left (1 at
        # step 0, and 1 * r is r): the same products in the same order as
        # one cumprod over the whole path
        for path, step, ratios in chunks:
            rows = out[path : path + len(ratios)]
            ratios[:, 0] *= rows[:, step]
            np.cumprod(ratios, axis=1, out=rows[:, step + 1 : step + 1 + ratios.shape[1]])
        out[first : first + n] *= s0  # PathSet rejects inf, 0 and NaN

    for _ in _map_gross(kernel, seed, n_paths, n_jobs, fill):
        pass
    return PathSet(grid=grid, paths=out)


@dataclass(frozen=True)
class TerminalStats:
    """Per-asset statistics of terminal prices of paths that start at 1."""

    mean: np.ndarray  # [n_assets]
    std: np.ndarray  # [n_assets], population (ddof 0)
    log_mean: np.ndarray  # [n_assets], mean log of the terminal price


def terminal_stats(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_jobs: int = 1,
) -> TerminalStats:
    """Mean, std and mean log of the terminal prices of paths that start at
    1, reduced as the blocks come in, without storing paths or terminal prices.

    Each block's terminal prices are ``simulate(..., s0=1.0).paths[:, -1, :]``
    bit for bit: a path's chunks are multiplied along their steps in order,
    carrying the product so far into the chunk's first step.  The blocks
    are folded in block order.  ``mean`` and ``log_mean`` add the rows in
    path order, so they equal numpy's ``mean(axis=0)`` of the [n_paths,
    n_assets] array bit for bit when n_assets > 1.  A single column is
    summed pairwise, by numpy over all paths and here within each block,
    so a one-asset run can differ in the last bits.
    ``std`` merges per-block (count, mean, M2) with the Chan-Golub-LeVeque
    update, so it matches numpy's two-pass ``std(axis=0)`` to rounding.

    The check rejects exactly what :class:`PathSet` rejects, with the same
    message.  Each path value is a running product of ratios exp(.), which
    lie in [0, inf] or are NaN.  A 0, inf or NaN reached at any step stays
    0, inf or NaN, or becomes NaN (0 * inf), up to the last step; so every
    value of a path is finite and > 0 exactly when its terminal value is.
    """
    kernel = _kernel(spec, grid, n_paths)

    def block_terminal(first: int, n: int, chunks: Iterator) -> np.ndarray:
        out = np.ones((n, spec.n_assets))
        for path, step, ratios in chunks:
            rows = out[path - first : path - first + len(ratios)]
            ratios[:, 0] *= rows  # the product so far: 1 before the first step
            np.multiply.reduce(ratios, axis=1, out=rows)
        return out

    return _fold_terminal(_map_gross(kernel, seed, n_paths, n_jobs, block_terminal), spec.n_assets)


def _fold_terminal(blocks: Iterable[np.ndarray], n_assets: int) -> TerminalStats:
    """:class:`TerminalStats` of terminal prices that come as row blocks, in path order."""
    total, log_total = np.zeros(n_assets), np.zeros(n_assets)
    moments = (0, np.zeros(n_assets), np.zeros(n_assets))
    lo, hi = np.inf, -np.inf
    with np.errstate(all="ignore"):  # the check below reports inf, 0 and NaN
        for block in blocks:
            # a NaN makes the min NaN
            lo, hi = np.minimum(lo, block.min()), np.maximum(hi, block.max())
            moments = _merge_moments(moments, _moments(block))
            logs = np.log(block)
            _add_rows(total, block)
            _add_rows(log_total, logs)
    if not (lo > 0 and np.isfinite(hi)):
        raise ValueError("paths must be finite and strictly positive")
    n_paths, _mean, m2 = moments
    return TerminalStats(
        mean=total / n_paths, std=np.sqrt(m2 / n_paths), log_mean=log_total / n_paths
    )


def _add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Add the rows of ``rows`` to ``total`` as numpy sums axis 0 of a C-ordered
    array: one by one, in order, when there is more than one column, and
    pairwise down a single column.  ``rows`` is overwritten."""
    rows[0] += total
    np.add.reduce(rows, axis=0, out=total)


def _moments(x: np.ndarray, axis: int = 0) -> tuple:
    """(count, mean, M2) of ``x`` along ``axis``: M2 is the sum of squared
    deviations from the mean."""
    mean = x.mean(axis=axis)
    dev = x - np.expand_dims(mean, axis)
    return x.shape[axis], mean, np.square(dev, out=dev).sum(axis=axis)


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """(count, mean, M2) of two samples pooled, from each one's (count, mean, M2).

    The pairwise update of Chan, Golub & LeVeque ("Algorithms for computing
    the sample variance", Am. Stat. 1983): no sum of squares about zero is
    formed, so no digits cancel when the mean is large against the spread.
    An empty ``a`` gives ``b`` as it is, as ``delta**2 * 0`` is NaN for a
    mean whose square overflows.
    """
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    if n_a == 0:
        return b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta**2 * (n_a * n_b / n)


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
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not np.all(np.isfinite([pi_mu, pi_sigma, phi_mu, phi_sigma])):
        raise ValueError("drifts and volatilities must be finite")
    if pi_sigma < 0 or phi_sigma < 0:
        raise ValueError("negative volatility: pi_sigma and phi_sigma must be >= 0")
    if not abs(rho) <= 1.0:  # NaN fails this test
        raise ValueError(f"|rho| must be <= 1, got {rho}")
    # column 0 is Pi, column 1 is Y
    shape = (grid.steps, 2)
    kernel = StepKernel(
        np.broadcast_to([pi_mu, phi_mu], shape), np.broadcast_to([pi_sigma, phi_sigma], shape),
        grid.dt, "normal",
    )
    y = np.ones((n_paths, grid.n_points))
    pi = np.ones((n_paths, grid.n_points))

    def fill(first: int, n: int, chunks: Iterator) -> None:
        for path, step, z in chunks:
            z[:, :, 1] *= np.sqrt(1.0 - rho**2)
            z[:, :, 1] += rho * z[:, :, 0]
            ratios = kernel.gross(z, step)
            rows = slice(path, path + len(z))
            cells = slice(step + 1, step + 1 + z.shape[1])
            for column, values in enumerate((pi, y)):
                # cumprod along the steps, from the value the chunk before left
                ratios[:, 0, column] *= values[rows, step]
                np.cumprod(ratios[:, :, column], axis=1, out=values[rows, cells])

    for _ in _map_blocks(seed, n_paths, grid.steps, 2, "normal", n_jobs, fill):
        pass
    return y, pi


def cross_term(
    y_values: np.ndarray, pi_values: np.ndarray, horizon: float
) -> tuple[float, float]:
    """MC estimate of the quadratic covariation d<log Y, log Pi>/dt.

    Returns (estimate, standard error).  Inputs must be jointly sampled value
    arrays of identical shape [n_paths, steps+1], with n_paths >= 2 for the
    standard error, and finite and positive for the logs.
    """
    y_values = np.asarray(y_values, dtype=float)
    pi_values = np.asarray(pi_values, dtype=float)
    if y_values.shape != pi_values.shape or y_values.ndim != 2:
        raise ValueError("Y and Pi samples must share the same [n_paths, steps+1] shape")
    if y_values.shape[0] < 2:
        raise ValueError(f"need at least 2 paths for a standard error, got {y_values.shape[0]}")
    if not 0 < horizon < np.inf:  # NaN fails this test
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    for name, values in (("Y", y_values), ("Pi", pi_values)):
        if not np.all((values > 0) & np.isfinite(values)):  # NaN fails both tests
            raise ValueError(f"{name} values must be finite and strictly positive")
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
