import threading
import tracemalloc

import numpy as np
import pytest

from gaugeport import (
    PathSet,
    TimeGrid,
    WeightVector,
    constant_spec,
    cross_term,
    return_volatility,
    riskfree_studies,
    simulate,
)
from gaugeport import sim
from gaugeport.catalog import build_process
from gaugeport.sim import (
    BLOCK_CELLS,
    CHUNK_CELLS,
    NOISE_KEY,
    NOISE_TAGS,
    EnvironmentSeries,
    ProcessSpec,
    StepKernel,
    block_paths,
    chunk_shape,
    noise_block,
    noise_stream,
    sample_joint_numeraire,
    terminal_stats,
)

GRID = TimeGrid(dt=1.0 / 64, steps=64)
ENV = EnvironmentSeries.constant(GRID)


class TestSimulate:
    def test_zero_vol_is_deterministic_exponential(self):
        spec = constant_spec(3, np.array([0.05, 0.0, -0.02]), 0.0)
        paths = simulate(spec, ENV, GRID, n_paths=4, seed=1)
        t = GRID.points()
        expected = np.exp(np.outer(t, np.array([0.05, 0.0, -0.02])))
        np.testing.assert_allclose(
            paths.paths, np.broadcast_to(expected, paths.paths.shape), rtol=1e-10
        )

    def test_lognormal_moments(self):
        # Terminal log is N((mu - sigma^2/2) T, sigma^2 T); check mean and
        # variance against 3-standard-error Monte Carlo bands.
        mu, sigma, n = 0.07, 0.2, 100_000
        spec = constant_spec(1, mu, sigma)
        paths = simulate(spec, ENV, GRID, n_paths=n, seed=77)
        log_t = np.log(paths.paths[:, -1, 0])
        t_end = GRID.horizon

        mean_se = sigma * np.sqrt(t_end) / np.sqrt(n)
        assert abs(log_t.mean() - (mu - sigma**2 / 2) * t_end) < 3 * mean_se

        var_se = sigma**2 * t_end * np.sqrt(2.0 / n)
        assert abs(log_t.var() - sigma**2 * t_end) < 3 * var_se

        terminal = paths.paths[:, -1, 0]
        term_se = terminal.std(ddof=1) / np.sqrt(n)
        assert abs(terminal.mean() - np.exp(mu * t_end)) < 3 * term_se

    def test_thread_count_does_not_change_sample(self):
        spec = constant_spec(4, 0.05, 0.25)
        a = simulate(spec, ENV, GRID, n_paths=1200, seed=9, n_jobs=1)
        b = simulate(spec, ENV, GRID, n_paths=1200, seed=9, n_jobs=8)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_sample(self):
        spec = constant_spec(2, 0.05, 0.25)
        a = simulate(spec, ENV, GRID, n_paths=10, seed=1)
        b = simulate(spec, ENV, GRID, n_paths=10, seed=2)
        assert not np.array_equal(a.paths, b.paths)

    def test_custom_start_prices(self):
        spec = constant_spec(2, 0.0, 0.0)
        paths = simulate(spec, ENV, GRID, 1, seed=0, s0=np.array([10.0, 0.5]))
        np.testing.assert_allclose(paths.paths[0, -1], [10.0, 0.5], rtol=1e-12)

    def test_environment_dependent_drift(self):
        xi = np.linspace(0.0, 1.0, GRID.n_points)[:, None]
        env = EnvironmentSeries(GRID, xi)
        spec = ProcessSpec(1, mu=lambda x: 0.1 * x[:, :1], sigma=lambda x: 0.0)
        paths = simulate(spec, env, GRID, 1, seed=0)
        expected = np.exp(0.1 * np.sum(xi[:-1, 0]) * GRID.dt)
        np.testing.assert_allclose(paths.paths[0, -1, 0], expected, rtol=1e-12)

    def test_environment_shape_rejected(self):
        # a 1-D series is one factor; a 2-D one is taken as given, not transposed
        assert EnvironmentSeries(GRID, np.zeros(GRID.n_points)).xi.shape == (GRID.n_points, 1)
        grid = TimeGrid(0.1, 3)
        for xi in (np.arange(4.0)[None, :], np.zeros((3, 1)), np.zeros((4, 1, 1)), 0.0):
            with pytest.raises(ValueError, match="one factor vector per grid point"):
                EnvironmentSeries(grid, xi)

    def test_negative_sigma_rejected(self):
        spec = ProcessSpec(1, mu=lambda x: 0.0, sigma=lambda x: -0.1)
        with pytest.raises(ValueError, match="negative"):
            simulate(spec, ENV, GRID, 1, seed=0)

    def test_peak_memory_is_output_plus_noise_blocks(self):
        # each of the 2 workers holds one 2^16-cell noise chunk at a time,
        # turned in place into ratios and multiplied into the output
        grid = TimeGrid(dt=1.0 / 64, steps=8)
        spec = constant_spec(256, 0.05, 0.2)
        env = EnvironmentSeries.constant(grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            paths = simulate(spec, env, grid, n_paths=2048, seed=3, n_jobs=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert block_paths(grid.steps, spec.n_assets) * grid.steps * spec.n_assets == BLOCK_CELLS
        assert chunk_shape(grid.steps, spec.n_assets) == (32, grid.steps)  # a quarter block
        assert peak <= paths.paths.nbytes + 3 * CHUNK_CELLS * 8


def per_cell(fn, env: EnvironmentSeries, n_assets: int) -> np.ndarray:
    """The scalar process model: one fn(asset, factor row) call per cell."""
    xi = env.xi[:-1]
    return np.array([[fn(i, xi[k]) for i in range(n_assets)] for k in range(xi.shape[0])])


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestProcessModel:
    """Array-valued catalog families against the per-cell formulas they replace."""

    XI = 1.5 * np.sin(np.linspace(0.0, 9.0, GRID.n_points))[:, None]

    def test_constant_family(self):
        mu = [0.01, -0.02, 0.05, 0.0, 0.07]
        sigma = [0.1, 0.0, 0.3, 0.25, 0.2]
        spec = build_process("constant", {"mu": mu, "sigma": sigma}, 5)
        env = EnvironmentSeries(GRID, self.XI)
        assert_same_bits(spec.drift_matrix(env), per_cell(lambda i, x: np.array(mu)[i], env, 5))
        assert_same_bits(spec.vol_matrix(env), per_cell(lambda i, x: np.array(sigma)[i], env, 5))

    def test_affine_family_with_vol_clamp(self):
        p = {"mu0": 0.03, "mu1": -0.7, "sigma0": 0.1, "sigma1": 0.2}
        spec = build_process("affine", p, 4)
        env = EnvironmentSeries(GRID, self.XI)
        sigma = spec.vol_matrix(env)
        # xi swings to -1.5, which drives sigma0 + sigma1 xi below 0 and onto the clamp
        assert np.any(sigma == 0.0) and np.any(sigma > 0.1)
        drift_ref = per_cell(lambda i, x: p["mu0"] + p["mu1"] * x[0], env, 4)
        vol_ref = per_cell(lambda i, x: max(p["sigma0"] + p["sigma1"] * x[0], 0.0), env, 4)
        assert_same_bits(spec.drift_matrix(env), drift_ref)
        assert_same_bits(sigma, vol_ref)

    def test_sector_block_family(self):
        mus = [0.01, 0.05, 0.09]
        sigmas = [0.1, 0.2, 0.3]
        spec = build_process("sector-block", {"mu_sectors": mus, "sigma_sectors": sigmas}, 8)
        env = EnvironmentSeries(GRID, self.XI)
        assert_same_bits(spec.drift_matrix(env), per_cell(lambda i, x: np.array(mus)[i % 3], env, 8))
        assert_same_bits(spec.vol_matrix(env), per_cell(lambda i, x: np.array(sigmas)[i % 3], env, 8))

    def test_scalar_sectors_are_one_sector(self):
        spec = build_process("sector-block", {"mu_sectors": 0.04, "sigma_sectors": 0.3}, 3)
        assert_same_bits(spec.vol_matrix(ENV), np.full((GRID.steps, 3), 0.3))

    def test_unbroadcastable_shape_rejected(self):
        spec = ProcessSpec(3, mu=lambda x: np.zeros(2), sigma=lambda x: 0.1)
        with pytest.raises(ValueError, match="broadcastable"):
            spec.drift_matrix(ENV)


class TestStepKernel:
    """Kernel terms keep the shape the process values vary in, and a chunk
    at any step offset gets the ratios of the whole path."""

    ENV = EnvironmentSeries(GRID, TestProcessModel.XI)

    @pytest.mark.parametrize(
        "family, params, shape",
        [
            ("constant", {"mu": [0.01, 0.02, 0.03], "sigma": 0.2}, (1, 3)),
            ("sector-block", {"mu_sectors": [0.01, 0.05], "sigma_sectors": [0.1, 0.2]}, (1, 3)),
            ("affine", {"mu0": 0.03, "mu1": -0.7, "sigma0": 0.1, "sigma1": 0.2}, (GRID.steps, 1)),
        ],
    )
    def test_terms_keep_the_shape_their_values_vary_in(self, family, params, shape):
        spec = build_process(family, params, 3)
        kernel = StepKernel.of(spec, self.ENV, GRID)
        assert (kernel.steps, kernel.n_assets) == (GRID.steps, 3)
        assert kernel.drift.shape == kernel.scale.shape == shape
        # the values of the [steps, N] terms, formed as before
        mu, sigma = spec.drift_matrix(self.ENV), spec.vol_matrix(self.ENV)
        drift = np.broadcast_to(kernel.drift, (GRID.steps, 3))
        assert_same_bits(drift, (mu - 0.5 * sigma**2) * GRID.dt)
        assert_same_bits(np.broadcast_to(kernel.scale, (GRID.steps, 3)), sigma * np.sqrt(GRID.dt))

    def test_chunks_at_step_offsets_give_the_path_ratios(self):
        # a per-step drift column and a per-step, per-asset volatility
        spec = ProcessSpec(
            4, mu=lambda x: 0.05 + 0.1 * x, sigma=lambda x: 0.2 + 0.1 * np.abs(x) * np.arange(4)
        )
        kernel = StepKernel.of(spec, self.ENV, GRID)
        assert kernel.drift.shape == kernel.scale.shape == (GRID.steps, 4)
        z = np.random.default_rng(2).standard_normal((2, GRID.steps, 4))
        whole = kernel.gross(z.copy())
        for width in (1, 10, GRID.steps):
            parts = [kernel.gross(z[:, k : k + width].copy(), k) for k in range(0, GRID.steps, width)]
            assert_same_bits(np.concatenate(parts, axis=1), whole)


#: 8 steps x 325 assets: 2600 cells per path, so a key block holds 100 paths
#: and 537 paths end in a ragged 37-path block.
GRID8 = TimeGrid(dt=1.0 / 64, steps=8)
WIDE = 325
RAGGED_PATHS = 537


def reference_draw(seed: int, key: int, shape: tuple, tag: str) -> np.ndarray:
    """Noise of one tag drawn straight from the SFC64 stream of SeedSequence([seed, key])."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, key])))
    if tag == "normal":
        return gen.standard_normal(shape)
    if tag == "uniform":
        return gen.uniform(-np.sqrt(3.0), np.sqrt(3.0), shape)
    return gen.integers(0, 2, shape).astype(float) * 2.0 - 1.0


def draw(seed: int, block: int, shape: tuple, tag: str) -> np.ndarray:
    """Key block ``block``'s noise of one tag, drawn at once."""
    return noise_block(noise_stream(seed, block), tag, np.empty(shape))


def assemble(first: int, n: int, chunks, steps: int, n_assets: int) -> np.ndarray:
    """A key block [n, steps, n_assets] put together from its chunks at their
    offsets; every cell must come from exactly one chunk."""
    block = np.full((n, steps, n_assets), np.nan)
    for path, step, z in chunks:
        cells = block[path - first : path - first + len(z), step : step + z.shape[1]]
        assert z.shape[0] * z.shape[1] * n_assets <= max(CHUNK_CELLS, n_assets)
        assert np.isnan(cells).all()
        cells[...] = z
    assert not np.isnan(block).any()
    return block


def philox_draw(seed: int, key: int, shape: tuple) -> np.ndarray:
    """Normals from the Philox key [seed, key], as the CLI draws its weights and gradients."""
    return np.random.Generator(np.random.Philox(key=[seed, key])).standard_normal(shape)


def key_blocks(n_paths: int, steps: int, n_assets: int):
    """(block, first path, paths) of every key block of a run."""
    size = block_paths(steps, n_assets)
    starts = range(0, n_paths, size)
    return [(b, first, min(size, n_paths - first)) for b, first in enumerate(starts)]


class TestSubBlocks:
    """A run's noise comes in key blocks of ~2^18 cells, each from its own SFC64 stream."""

    def test_chunk_shape_rule(self):
        # whole paths when a path fits in 2^16 cells, else part of one path's steps
        assert chunk_shape(GRID8.steps, WIDE) == (25, GRID8.steps)
        assert chunk_shape(64, 1024) == (1, 64)
        assert chunk_shape(1260, 512) == (1, 128)
        assert chunk_shape(3, CHUNK_CELLS + 1) == (1, 1)  # a step wider than a chunk

    def test_block_size_rule(self):
        assert block_paths(GRID8.steps, WIDE) == 100
        assert block_paths(64, 1024) == 4
        assert block_paths(1260, 512) == 1  # a path longer than a block is one block
        assert [size for _b, _first, size in key_blocks(RAGGED_PATHS, GRID8.steps, WIDE)] == [
            100, 100, 100, 100, 100, 37
        ]

    @staticmethod
    def check_block_keys(tag, n_paths, steps, n_assets):
        # the executor hands each block its first path and its noise in
        # chunks at their offsets, drawn in order from the stream of
        # SeedSequence([seed, NOISE_KEY + b]), and yields the results in
        # block order
        def whole(first, n, chunks):
            return first, assemble(first, n, chunks, steps, n_assets)

        seen = list(sim._map_blocks(7, n_paths, steps, n_assets, tag, 3, whole))
        assert [(b, first, len(z)) for b, (first, z) in enumerate(seen)] == key_blocks(
            n_paths, steps, n_assets
        )
        for block, (_first, z) in enumerate(seen):
            ref = reference_draw(7, NOISE_KEY + block, z.shape, tag)
            assert_same_bits(z, ref)

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    def test_each_block_draws_from_its_own_key(self, tag):
        # 25 paths a chunk; the last block and its last chunk are ragged
        self.check_block_keys(tag, RAGGED_PATHS, GRID8.steps, WIDE)

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    def test_one_path_spread_over_chunks(self, tag):
        # one path a block, 218 steps a chunk, and a ragged last chunk
        assert chunk_shape(700, 300) == (1, 218)
        self.check_block_keys(tag, 3, 700, 300)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
    def test_noise_keys_miss_the_cli_keys(self, seed):
        # the CLI draws riskfree's second weighting from the Philox key
        # [seed, 1] and the sensitivity gradients from [seed, 0]; no noise
        # block may share them
        for block in range(4):
            z = draw(seed, block, (4, 2, 3), "normal")
            for key in (0, 1):
                assert not np.array_equal(z, philox_draw(seed, key, z.shape))

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    def test_adjacent_streams_are_uncorrelated(self, tag):
        # SeedSequence hashes [seed, NOISE_KEY + block], so neighbouring blocks
        # and neighbouring seeds must give unrelated streams: no two equal
        # draws in a row and a sample correlation within 5 standard errors of 0
        n = 1 << 14
        base = draw(11, 3, (n, 1, 1), tag).ravel()
        for seed, block in [(11, 2), (11, 4), (10, 3), (12, 3), (12, 4)]:
            other = draw(seed, block, (n, 1, 1), tag).ravel()
            same = np.count_nonzero(base == other)
            # two-point draws agree half the time by chance, continuous ones never
            assert same < (0.52 * n if tag == "two-point" else 1)
            assert abs(np.corrcoef(base, other)[0, 1]) < 5.0 / np.sqrt(n)

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    def test_simulate_matches_whole_block_cumprod(self, tag):
        spec = constant_spec(WIDE, np.linspace(-0.05, 0.1, WIDE), np.linspace(0.0, 0.4, WIDE), tag)
        env = EnvironmentSeries.constant(GRID8)
        s0 = np.linspace(0.5, 2.0, WIDE)
        kernel = StepKernel.of(spec, env, GRID8)
        expected = np.empty((RAGGED_PATHS, GRID8.n_points, WIDE))
        expected[:, 0] = s0
        for block, start, size in key_blocks(RAGGED_PATHS, GRID8.steps, WIDE):
            z = draw(7, block, (size, GRID8.steps, WIDE), tag)
            z *= kernel.scale
            z += kernel.drift
            expected[start : start + size, 1:] = np.cumprod(np.exp(z), axis=1) * s0
        for n_jobs in (1, 2, 3):
            paths = simulate(spec, env, GRID8, RAGGED_PATHS, seed=7, s0=s0, n_jobs=n_jobs)
            assert_same_bits(paths.paths, expected)

    def test_studies_hold_a_few_blocks(self):
        # 1024 assets x 64 steps: a key block is 4 paths, 2 MiB of noise
        grid = TimeGrid(dt=1.0 / 64, steps=64)
        n = 1024
        spec = constant_spec(n, 0.05, 0.2)
        env = EnvironmentSeries.constant(grid)
        block_bytes = BLOCK_CELLS * 8
        wb = np.random.default_rng(1).uniform(0.5, 1.5, n)
        w = WeightVector(wb / wb.sum())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            riskfree_studies(spec, env, grid, w, [16, 64, 256, n], 256, seed=3, n_jobs=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a one-path chunk per worker and each block's per-row, per-size
        # log-returns; not a key block per worker, nor the kernel's
        # [steps, N] terms, nor the 128 MiB of the whole draw
        assert chunk_shape(grid.steps, n) == (1, grid.steps)
        assert peak <= 3 * CHUNK_CELLS * 8 < block_bytes

    def test_long_simulate_holds_output_plus_few_sub_blocks(self):
        # 1260 steps x 512 assets: a key block is one path of ten chunks
        grid = TimeGrid(dt=1.0 / 252, steps=1260)
        spec = constant_spec(512, 0.05, 0.2)
        env = EnvironmentSeries.constant(grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            paths = simulate(spec, env, grid, n_paths=16, seed=3, n_jobs=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        path_bytes = grid.steps * spec.n_assets * 8
        # a chunk per worker and some to spare: no block of noise and no
        # [steps, N] kernel terms, each of which is a path
        assert peak <= paths.paths.nbytes + 3 * CHUNK_CELLS * 8 < paths.paths.nbytes + path_bytes


class TestTerminalPrices:
    """terminal_stats reduces the last time slice of simulate from s0 = 1 as the blocks come in."""

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    @pytest.mark.parametrize(
        "grid, n_assets, n_paths",
        [
            (GRID8, WIDE, RAGGED_PATHS),  # ragged last block
            (GRID, 1, RAGGED_PATHS),  # one asset, one ragged block
            (TimeGrid(dt=1.0 / 252, steps=1024), 256, 3),  # one path of four chunks per block
            (GRID, 1, 2 * block_paths(64, 1) + RAGGED_PATHS),  # one asset, three blocks
        ],
    )
    def test_matches_the_last_slice_of_simulate(self, tag, grid, n_assets, n_paths):
        mu, sigma = np.linspace(-0.05, 0.1, n_assets), np.linspace(0.0, 0.4, n_assets)
        spec = constant_spec(n_assets, mu, sigma, tag)
        env = EnvironmentSeries.constant(grid)
        for n_jobs in (1, 2, 3):
            terminal = simulate(spec, env, grid, n_paths, seed=7, s0=1.0, n_jobs=n_jobs).paths[:, -1]
            stats = terminal_stats(spec, env, grid, n_paths, seed=7, n_jobs=n_jobs)
            if n_assets > 1 or n_paths <= block_paths(grid.steps, n_assets):
                # rows added in path order, as numpy adds them; a single
                # column in one block is summed pairwise by both
                assert_same_bits(stats.mean, terminal.mean(axis=0))
                assert_same_bits(stats.log_mean, np.log(terminal).mean(axis=0))
            else:
                # numpy sums one column pairwise over all paths, the fold within blocks
                np.testing.assert_allclose(stats.mean, terminal.mean(axis=0), rtol=1e-14)
                np.testing.assert_allclose(stats.log_mean, np.log(terminal).mean(axis=0), rtol=1e-13)
            # asset 0 has sigma = 0: both of its stds are rounding noise on a price near 1
            np.testing.assert_allclose(stats.std, terminal.std(axis=0), rtol=1e-13, atol=1e-14)

    @pytest.mark.filterwarnings("error")  # no numpy warning escapes the tasks or the fold
    @pytest.mark.parametrize(
        "mu, sigma",
        [(1e5, 0.2), (0.05, 1e3)],  # exp overflows to inf; exp underflows to 0
    )
    def test_rejects_what_simulate_rejects(self, mu, sigma):
        spec = constant_spec(2, [0.05, mu], [0.2, sigma])
        with pytest.raises(ValueError) as stored:
            simulate(spec, ENV, GRID, 8, seed=1)
        with pytest.raises(ValueError) as streamed:
            terminal_stats(spec, ENV, GRID, 8, seed=1)
        assert str(streamed.value) == str(stored.value) == "paths must be finite and strictly positive"

    @pytest.mark.filterwarnings("error")  # no numpy warning escapes the fold
    def test_std_of_a_mean_whose_square_overflows(self):
        # (2^520)^2 overflows: merging the first block into the empty fold
        # must not make delta**2 * 0 a NaN.  Equal values sum exactly here,
        # so every deviation and the std are 0
        x = np.full((3 * 512, 2), 2.0**520)
        stats = sim._fold_terminal((x[i : i + 512].copy() for i in range(0, len(x), 512)), 2)
        assert_same_bits(stats.std, np.zeros(2))
        assert_same_bits(stats.std, x.std(axis=0))
        assert_same_bits(stats.mean, x.mean(axis=0))

    def test_peak_does_not_grow_with_paths_or_steps(self):
        # 64 assets on 2 workers: a chunk buffer per worker, the terminal rows
        # of the blocks in flight (at most 512 paths each) and the fold's two
        # block-sized temporaries; neither paths nor steps enter the bound
        bound = 8 * CHUNK_CELLS * 8
        spec = constant_spec(64, 0.05, 0.2)
        peaks = {}
        for steps, n_paths in [(8, 4096), (8, 16384), (1260, 64)]:
            grid = TimeGrid(dt=1.0 / 252, steps=steps)
            env = EnvironmentSeries.constant(grid)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                terminal_stats(spec, env, grid, n_paths, seed=3, n_jobs=2)
                peaks[steps, n_paths] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= bound, peaks
        # the terminal prices of 16384 paths alone would be 8 MiB
        assert bound < 16384 * 64 * 8


class TestMapBlocks:
    # one path per key block: 20 blocks, more than the 2 * n_jobs window
    STEPS, N_ASSETS, N_PATHS = 512, BLOCK_CELLS // 512, 20

    def map_blocks(self, n_jobs, fn):
        return list(
            sim._map_blocks(7, self.N_PATHS, self.STEPS, self.N_ASSETS, "normal", n_jobs, fn)
        )

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_results_in_block_order(self, n_jobs):
        assert self.map_blocks(n_jobs, lambda first, n, chunks: first) == list(range(self.N_PATHS))

    def test_blocks_outstanding_are_bounded(self):
        # while a worker holds block 0, the other worker runs only the blocks
        # submitted behind it: at most 2 * n_jobs, not all 19
        n_jobs, ran, all_ran = 2, [], threading.Event()

        def fn(first, n, chunks):
            if first == 0:
                all_ran.wait(timeout=0.5)
                return len(ran)
            ran.append(first)
            if len(ran) == self.N_PATHS - 1:
                all_ran.set()
            return first

        assert self.map_blocks(n_jobs, fn)[0] <= 2 * n_jobs

    def test_block_error_propagates(self):
        def fail(first, n, chunks):
            if first == 5:
                raise ValueError(f"block {first}")
            return first

        with pytest.raises(ValueError, match="^block 5$"):
            self.map_blocks(2, fail)

    def test_n_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="^n_jobs must be >= 1$"):
            self.map_blocks(0, lambda first, n, chunks: first)

    def test_a_task_reuses_one_chunk_buffer(self):
        # 512 steps x 512 assets: a path is four 128-step chunks, all drawn
        # into the same memory
        buffers = set()

        def fn(first, n, chunks):
            for _path, _step, z in chunks:
                buffers.add((first, z.__array_interface__["data"][0]))
            return first

        list(sim._map_blocks(7, 2, 512, 512, "normal", 1, fn))
        assert len(buffers) == 2


class TestNoiseTags:
    @pytest.mark.parametrize("tag", ["uniform", "two-point"])
    def test_alternative_noise_has_unit_variance(self, tag):
        z = draw(3, 0, (2000, 50, 1), tag)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    @pytest.mark.parametrize("seed,block", [(0, 0), (5, 3), (2**63 - 1, 41)])
    def test_block_key_is_seed_then_block(self, seed, block):
        # the seeding scheme: one SFC64 stream per SeedSequence([seed, NOISE_KEY + block])
        ref = reference_draw(seed, NOISE_KEY + block, (7, 3, 2), "normal")
        assert_same_bits(draw(seed, block, (7, 3, 2), "normal"), ref)

    @pytest.mark.parametrize("seed", [-1, -2, 2**63, 2**64 - 1])
    def test_seed_outside_range_rejected(self, seed):
        # the seed also keys the CLI's Philox streams, and numpy passes Philox
        # key words >= 2^63 through float64, so such seeds would collide there
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^63\)"):
            noise_stream(seed, 0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="noise tag"):
            constant_spec(1, 0.0, 0.1, noise="cauchy")

    def test_two_point_simulation_runs(self):
        spec = constant_spec(2, 0.05, 0.2, noise="two-point")
        paths = simulate(spec, ENV, GRID, n_paths=100, seed=4)
        assert paths.paths.shape == (100, GRID.n_points, 2)
        # every step ratio takes one of exactly two values per asset
        ratios = paths.paths[:, 1, 0] / paths.paths[:, 0, 0]
        assert np.unique(np.round(ratios, 12)).size == 2


class TestNumeraire:
    def test_inverse_asset_numeraire_freezes_the_asset(self):
        # Y = 1/pi up to drift: phi_sigma = sigma, rho = -1, phi_mu = -mu + sigma^2
        # makes the asset in numeraire units, y * pi, constant along every path
        mu, sigma = 0.06, 0.2
        y, pi = sample_joint_numeraire(GRID, 64, 21, mu, sigma, -mu + sigma**2, sigma, -1.0)
        np.testing.assert_allclose(y * pi, 1.0, rtol=1e-10)


class TestCrossTerm:
    N_PATHS = 40_000

    def test_deterministic_numeraire_gives_zero(self):
        y, pi = sample_joint_numeraire(
            GRID, 2000, seed=41, pi_mu=0.05, pi_sigma=0.2, phi_mu=0.03, phi_sigma=0.0, rho=0.0
        )
        estimate, _se = cross_term(y, pi, GRID.horizon)
        # no stochastic part at all: the covariation is O(dt) drift cross-talk
        assert abs(estimate) < 1e-4

    def test_independent_numeraire_gives_zero(self):
        y, pi = sample_joint_numeraire(
            GRID, self.N_PATHS, seed=42, pi_mu=0.05, pi_sigma=0.2,
            phi_mu=0.03, phi_sigma=0.2, rho=0.0,
        )
        estimate, se = cross_term(y, pi, GRID.horizon)
        assert abs(estimate) < 3 * se

    def test_correlated_numeraire_gives_rho_sigma_sigma(self):
        y, pi = sample_joint_numeraire(
            GRID, self.N_PATHS, seed=43, pi_mu=0.05, pi_sigma=0.2,
            phi_mu=0.03, phi_sigma=0.2, rho=1.0,
        )
        estimate, se = cross_term(y, pi, GRID.horizon)
        assert abs(estimate - 0.04) < 3 * se + 1e-4

    def test_thread_count_does_not_change_joint_sample(self):
        # 2 noise columns x 64 steps: three key blocks of 2048 paths, the last ragged
        args = (GRID, 5000, 12, 0.05, 0.2, 0.03, 0.1, 0.4)
        y1, pi1 = sample_joint_numeraire(*args, n_jobs=1)
        for n_jobs in (2, 3):
            y, pi = sample_joint_numeraire(*args, n_jobs=n_jobs)
            assert_same_bits(y, y1)
            assert_same_bits(pi, pi1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cross_term(np.ones((3, 5)), np.ones((4, 5)), 1.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="^horizon must be positive and finite"):
            cross_term(np.ones((3, 5)), np.ones((3, 5)), horizon)

    @pytest.mark.filterwarnings("error")  # a ValueError, not NaN and a numpy warning
    @pytest.mark.parametrize(
        "case, message",
        [
            ("one path", "^need at least 2 paths"),
            ("negative Y", "^Y values must be finite and strictly positive"),
            ("zero Pi", "^Pi values must be finite and strictly positive"),
            ("NaN Y", "^Y values must be finite and strictly positive"),
            ("infinite Pi", "^Pi values must be finite and strictly positive"),
        ],
    )
    def test_rejects_what_has_no_estimate(self, case, message):
        y, pi = sample_joint_numeraire(GRID, 4, 1, 0.05, 0.2, 0.03, 0.2, 0.5)
        if case == "one path":
            y, pi = y[:1], pi[:1]
        elif case == "negative Y":
            y = -y
        elif case == "zero Pi":
            pi[2, 7] = 0.0
        elif case == "NaN Y":
            y[1, 3] = np.nan
        else:
            pi[0, -1] = np.inf
        with pytest.raises(ValueError, match=message):
            cross_term(y, pi, GRID.horizon)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_sampler_needs_a_path(self, n_paths):
        with pytest.raises(ValueError, match="^n_paths must be >= 1$"):
            sample_joint_numeraire(GRID, n_paths, 1, 0.05, 0.2, 0.03, 0.2, 0.5)

    BAD_INPUTS = [
        ("pi_mu", np.nan, "must be finite"),
        ("phi_mu", -np.inf, "must be finite"),
        ("pi_sigma", np.inf, "must be finite"),
        ("phi_sigma", np.nan, "must be finite"),
        # a negative volatility would flip the sign of the noise, and of the cross term
        ("pi_sigma", -0.2, "negative volatility"),
        ("phi_sigma", -0.1, "negative volatility"),
        ("rho", np.nan, r"\|rho\| must be <= 1"),
        ("rho", 1.5, r"\|rho\| must be <= 1"),
        ("rho", -1.01, r"\|rho\| must be <= 1"),
    ]

    @pytest.mark.parametrize(
        "key, value, message", BAD_INPUTS, ids=[f"{k}={v}" for k, v, _m in BAD_INPUTS]
    )
    def test_sampler_rejects_bad_inputs(self, key, value, message):
        args = dict(pi_mu=0.05, pi_sigma=0.2, phi_mu=0.03, phi_sigma=0.2, rho=1.0)
        with pytest.raises(ValueError, match=message):
            sample_joint_numeraire(GRID, 8, 1, **{**args, key: value})


class TestReturnVolatility:
    def test_constant_samples_have_zero_volatility(self):
        assert return_volatility(np.full(100, 0.05)) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_shift_cancels_exactly(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(0.05, 0.3, size=(500, GRID.steps))
        shift = np.sin(GRID.points()[:-1])  # same shift for every sample
        assert return_volatility(samples + shift) == pytest.approx(
            return_volatility(samples), abs=1e-13
        )

    def test_iid_normal_recovers_scale(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(0.0, 0.3, size=(200_000,))
        assert return_volatility(samples) == pytest.approx(0.3, rel=0.01)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            return_volatility(np.array([0.1]))


class TestPathSetValidation:
    def test_nonpositive_prices_rejected(self):
        bad = np.ones((1, GRID.n_points, 1))
        bad[0, 3, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            PathSet(grid=GRID, paths=bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.5])
    def test_nonfinite_or_negative_price_rejected(self, value):
        bad = np.ones((3, GRID.n_points, 2))
        bad[1, 5, 1] = value
        with pytest.raises(ValueError, match="^paths must be finite and strictly positive$"):
            PathSet(grid=GRID, paths=bad)

    def test_wrong_time_axis_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            PathSet(grid=GRID, paths=np.ones((1, 7, 1)))
