import tracemalloc
import weakref

import numpy as np
import pytest

from gaugeport import (
    GaugeScalar,
    NumeraireSpec,
    PathSet,
    PricePanel,
    TimeGrid,
    WeightVector,
    apply_numeraire,
    apply_price_gauge,
    constant_spec,
    convergence_study,
    cross_term,
    etemadi_check,
    portfolio_dynamics,
    return_volatility,
    riskfree_studies,
    simulate,
)
from gaugeport import sim
from gaugeport.catalog import build_process
from gaugeport.sim import (
    BLOCK_CELLS,
    NOISE_KEY,
    NOISE_TAGS,
    EnvironmentSeries,
    ProcessSpec,
    StepKernel,
    TaskPool,
    block_paths,
    noise_block,
    sample_joint_numeraire,
    terminal_prices,
)

GRID = TimeGrid(t0=0.0, dt=1.0 / 64, steps=64)
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

    def test_negative_sigma_rejected(self):
        spec = ProcessSpec(1, mu=lambda x: 0.0, sigma=lambda x: -0.1)
        with pytest.raises(ValueError, match="negative"):
            simulate(spec, ENV, GRID, 1, seed=0)

    def test_peak_memory_is_output_plus_noise_blocks(self):
        # each of the 2 workers holds one 2^18-cell noise block at a time,
        # turned in place into ratios and multiplied into the output
        grid = TimeGrid(t0=0.0, dt=1.0 / 64, steps=8)
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
        assert peak <= paths.paths.nbytes + 3 * BLOCK_CELLS * 8


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


#: 8 steps x 325 assets: 2600 cells per path, so a key block holds 100 paths
#: and 537 paths end in a ragged 37-path block.
GRID8 = TimeGrid(t0=0.0, dt=1.0 / 64, steps=8)
WIDE = 325
RAGGED_PATHS = 537


def reference_draw(seed: int, key: int, shape: tuple, tag: str) -> np.ndarray:
    """Noise of one tag drawn straight from the Philox key [seed, key]."""
    gen = np.random.Generator(np.random.Philox(key=[seed, key]))
    if tag == "normal":
        return gen.standard_normal(shape)
    if tag == "uniform":
        return gen.uniform(-np.sqrt(3.0), np.sqrt(3.0), shape)
    return gen.integers(0, 2, shape).astype(float) * 2.0 - 1.0


def key_blocks(n_paths: int, steps: int, n_assets: int):
    """(block, first path, paths) of every key block of a run."""
    size = block_paths(steps, n_assets)
    starts = range(0, n_paths, size)
    return [(b, first, min(size, n_paths - first)) for b, first in enumerate(starts)]


class TestSubBlocks:
    """A run's noise comes in key blocks of ~2^18 cells, each from its own Philox key."""

    def test_block_size_rule(self):
        assert block_paths(GRID8.steps, WIDE) == 100
        assert block_paths(64, 1024) == 4
        assert block_paths(1260, 512) == 1  # a path longer than a block is one block
        assert [size for _b, _first, size in key_blocks(RAGGED_PATHS, GRID8.steps, WIDE)] == [
            100, 100, 100, 100, 100, 37
        ]

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    def test_each_block_draws_from_its_own_key(self, tag):
        # the executor hands block b, its first path and its noise, drawn from
        # [seed, NOISE_KEY + b]; the last block is ragged
        seen = sim._map_blocks(7, RAGGED_PATHS, GRID8.steps, WIDE, tag, 3, lambda *a: a)
        assert [(b, first, len(z)) for b, first, z in seen] == key_blocks(
            RAGGED_PATHS, GRID8.steps, WIDE
        )
        for block, _first, z in seen:
            ref = reference_draw(7, NOISE_KEY + block, z.shape, tag)
            assert_same_bits(z, ref)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
    def test_noise_keys_miss_the_cli_keys(self, seed):
        # the CLI draws riskfree's second weighting from [seed, 1] and the
        # sensitivity gradients from [seed, 0]; no noise block may share them
        for block in range(4):
            z = noise_block(seed, block, 4, 2, 3, "normal")
            for key in (0, 1):
                assert not np.array_equal(z, reference_draw(seed, key, z.shape, "normal"))

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    def test_simulate_matches_whole_block_cumprod(self, tag):
        spec = constant_spec(WIDE, np.linspace(-0.05, 0.1, WIDE), np.linspace(0.0, 0.4, WIDE), tag)
        env = EnvironmentSeries.constant(GRID8)
        s0 = np.linspace(0.5, 2.0, WIDE)
        kernel = StepKernel.of(spec, env, GRID8)
        expected = np.empty((RAGGED_PATHS, GRID8.n_points, WIDE))
        expected[:, 0] = s0
        for block, start, size in key_blocks(RAGGED_PATHS, GRID8.steps, WIDE):
            z = noise_block(7, block, size, GRID8.steps, WIDE, tag)
            z *= kernel.scale
            z += kernel.drift
            expected[start : start + size, 1:] = np.cumprod(np.exp(z), axis=1) * s0
        for n_jobs in (1, 2, 3):
            paths = simulate(spec, env, GRID8, RAGGED_PATHS, seed=7, s0=s0, n_jobs=n_jobs)
            assert_same_bits(paths.paths, expected)

    def test_numeraire_matches_whole_blocks(self):
        spec = constant_spec(WIDE, 0.05, 0.2)
        env = EnvironmentSeries.constant(GRID8)
        paths = simulate(spec, env, GRID8, RAGGED_PATHS, seed=8)
        rho = np.full(WIDE, 0.5 / np.sqrt(WIDE))
        y = NumeraireSpec(phi_mu=0.02, phi_sigma=0.1, rho=rho)
        dt = GRID8.dt
        expected = paths.paths.copy()
        # the residual noise is keyed by seed2 and drawn per key block of the assets
        for block, start, size in key_blocks(RAGGED_PATHS, GRID8.steps, WIDE):
            z = noise_block(8, block, size, GRID8.steps, WIDE, "normal")
            resid = noise_block(9, block, size, GRID8.steps, 1, "normal")[:, :, 0]
            z_phi = z @ rho + np.sqrt(1.0 - rho @ rho) * resid
            log_y = np.cumsum((0.02 - 0.5 * 0.1**2) * dt + 0.1 * np.sqrt(dt) * z_phi, axis=1)
            expected[start : start + size, 1:] *= np.exp(log_y)[:, :, None]
        for n_jobs in (1, 2, 3):
            assert_same_bits(apply_numeraire(paths, y, seed2=9, n_jobs=n_jobs).paths, expected)

    def test_studies_hold_a_few_blocks(self):
        # 1024 assets x 64 steps: a key block is 4 paths, 2 MiB of noise
        grid = TimeGrid(t0=0.0, dt=1.0 / 64, steps=64)
        n = 1024
        spec = constant_spec(n, 0.05, 0.2)
        env = EnvironmentSeries.constant(grid)
        block_bytes = BLOCK_CELLS * 8
        wb = np.random.default_rng(1).uniform(0.5, 1.5, n)
        weights = (WeightVector.equal(n), WeightVector(wb / wb.sum()))
        sizes = [16, 64, 256, n]
        studies = [
            lambda: convergence_study(spec, env, grid, sizes, 256, seed=3, n_jobs=2),
            lambda: etemadi_check(spec, env, grid, *weights, 256, seed=3, sizes=sizes, n_jobs=2),
            lambda: riskfree_studies(spec, env, grid, *weights, sizes, 256, seed=3, n_jobs=2),
        ]
        for study in studies:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                study()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # a block per worker, its per-row, per-size log-returns and the
            # kernel's [steps, N] terms; not the 128 MiB of the whole draw
            assert peak <= 4 * block_bytes

    def test_long_simulate_holds_output_plus_few_sub_blocks(self):
        # 1260 steps x 512 assets: a key block is one path
        grid = TimeGrid(t0=0.0, dt=1.0 / 252, steps=1260)
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
        # the kernel's two [steps, N] terms, a block per worker, some to spare
        assert peak <= paths.paths.nbytes + 8 * path_bytes


class TestTerminalPrices:
    """terminal_prices is the last time slice of simulate, bit for bit."""

    @pytest.mark.parametrize("tag", NOISE_TAGS)
    @pytest.mark.parametrize(
        "grid, n_assets, n_paths",
        [
            (GRID8, WIDE, RAGGED_PATHS),  # ragged last block
            (GRID, 1, RAGGED_PATHS),  # one asset, one ragged block
            (TimeGrid(t0=0.0, dt=1.0 / 252, steps=1024), 256, 3),  # one path per block
        ],
    )
    def test_matches_the_last_slice_of_simulate(self, tag, grid, n_assets, n_paths):
        mu, sigma = np.linspace(-0.05, 0.1, n_assets), np.linspace(0.0, 0.4, n_assets)
        spec = constant_spec(n_assets, mu, sigma, tag)
        env = EnvironmentSeries.constant(grid)
        s0 = np.linspace(0.5, 2.0, n_assets)
        for n_jobs in (1, 2, 3):
            paths = simulate(spec, env, grid, n_paths, seed=7, s0=s0, n_jobs=n_jobs)
            terminal = terminal_prices(spec, env, grid, n_paths, seed=7, s0=s0, n_jobs=n_jobs)
            assert_same_bits(terminal, paths.paths[:, -1, :])

    @pytest.mark.filterwarnings("error")  # no numpy warning escapes the tasks
    @pytest.mark.parametrize(
        "mu, sigma",
        [(1e5, 0.2), (0.05, 1e3)],  # exp overflows to inf; exp underflows to 0
    )
    def test_rejects_what_simulate_rejects(self, mu, sigma):
        spec = constant_spec(2, [0.05, mu], [0.2, sigma])
        with pytest.raises(ValueError) as stored:
            simulate(spec, ENV, GRID, 8, seed=1)
        with pytest.raises(ValueError) as streamed:
            terminal_prices(spec, ENV, GRID, 8, seed=1)
        assert str(streamed.value) == str(stored.value) == "paths must be finite and strictly positive"


class TestTaskPool:
    def test_results_in_task_order(self):
        with TaskPool(3) as pool:
            assert pool.map(lambda a, b: a * b, [(k, k + 1) for k in range(20)]) == [
                k * (k + 1) for k in range(20)
            ]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_generated_arguments_are_released(self, n_jobs):
        # the tasks are drawn lazily: only the outstanding ones keep their
        # arguments alive, and none is left once the map returns
        live = set()
        most = []

        def produce():
            for k in range(40):
                arg = np.zeros(8)
                live.add(k)
                weakref.finalize(arg, live.discard, k)
                most.append(len(live))
                yield (arg,)
                del arg

        with TaskPool(n_jobs) as pool:
            assert pool.map(lambda arg: arg.sum(), produce()) == [0.0] * 40
        assert not live
        # the 2 * n_jobs pending tasks, the one being settled and the one being drawn
        assert max(most) <= 2 * n_jobs + 2

    def test_task_error_propagates(self):
        def fail(k):
            raise ValueError(f"task {k}")

        with TaskPool(2) as pool, pytest.raises(ValueError, match="task"):
            pool.map(fail, [(0,), (1,)])


class TestNoiseTags:
    @pytest.mark.parametrize("tag", ["uniform", "two-point"])
    def test_alternative_noise_has_unit_variance(self, tag):
        z = noise_block(3, 0, 2000, 50, 1, tag)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    @pytest.mark.parametrize("seed,block", [(0, 0), (5, 3), (2**63 - 1, 41)])
    def test_block_key_is_seed_then_block(self, seed, block):
        # the seeding scheme: one Philox stream per key [seed, NOISE_KEY + block]
        gen = np.random.Generator(np.random.Philox(key=[seed, NOISE_KEY + block]))
        assert_same_bits(noise_block(seed, block, 7, 3, 2, "normal"), gen.standard_normal((7, 3, 2)))

    @pytest.mark.parametrize("seed", [-1, -2, 2**63, 2**64 - 1])
    def test_seed_outside_range_rejected(self, seed):
        # numpy passes key words >= 2^63 through float64, so such keys collide
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^63\)"):
            noise_block(seed, 0, 2, 3, 1, "normal")

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


class TestPortfolioDynamics:
    def test_analytic_sigma_hat_formula(self):
        n = 16
        sigmas = np.full(n, 0.2)
        spec = constant_spec(n, 0.05, 0.2)
        paths = simulate(spec, ENV, GRID, n_paths=200, seed=11)
        dyn = portfolio_dynamics(paths, np.full(n, 1.0 / n), sigmas=sigmas)
        assert dyn.sigma_hat_analytic == pytest.approx(0.2 / np.sqrt(n), abs=1e-15)
        # realized estimate should land within 10% of the analytic value
        assert abs(dyn.sigma_hat_realized - dyn.sigma_hat_analytic) < 0.1 * dyn.sigma_hat_analytic

    def test_uneven_weights(self):
        w = np.array([0.7, 0.3])
        sigmas = np.array([0.1, 0.4])
        spec = constant_spec(2, 0.0, sigmas)
        paths = simulate(spec, ENV, GRID, n_paths=50, seed=3)
        dyn = portfolio_dynamics(paths, w, sigmas=sigmas)
        expected = np.sqrt(0.49 * 0.01 + 0.09 * 0.16)
        assert dyn.sigma_hat_analytic == pytest.approx(expected, rel=1e-14)
        assert dyn.returns.shape == (50, GRID.steps)

    def test_log_returns_taken_once_keep_their_bits(self):
        spec = constant_spec(5, 0.05, np.linspace(0.1, 0.3, 5))
        paths = simulate(spec, ENV, GRID, n_paths=40, seed=12)
        w = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        dyn = portfolio_dynamics(paths, w)
        gross = (paths.paths[:, 1:, :] / paths.paths[:, :-1, :]) @ w
        assert_same_bits(dyn.returns, np.log(gross) / GRID.dt)
        assert dyn.sigma_hat_realized == float(np.std(np.log(gross))) / np.sqrt(GRID.dt)

    def test_weights_must_sum_to_one(self):
        spec = constant_spec(2, 0.0, 0.1)
        paths = simulate(spec, ENV, GRID, n_paths=5, seed=0)
        with pytest.raises(ValueError, match="sum to one"):
            portfolio_dynamics(paths, np.array([0.7, 0.5]))


class TestNumeraire:
    def test_deterministic_mode_is_price_gauge(self):
        spec = constant_spec(2, 0.05, 0.2)
        paths = simulate(spec, ENV, GRID, n_paths=20, seed=6)
        y = NumeraireSpec(phi_mu=0.03)
        scaled = apply_numeraire(paths, y, seed2=0)
        factor = np.exp(0.03 * GRID.points())
        np.testing.assert_allclose(
            scaled.paths, paths.paths * factor[None, :, None], rtol=1e-12
        )

    def test_zero_phi_sigma_ignores_rho(self):
        # no numeraire noise, so the correlations do not enter: the result is
        # the price-gauge rescaling by exp(cumulative phi_mu dt), bit for bit
        paths = simulate(constant_spec(3, 0.05, 0.2), ENV, GRID, n_paths=20, seed=6)
        phi_mu = np.linspace(-0.02, 0.04, GRID.steps)
        y = NumeraireSpec(phi_mu=phi_mu, rho=np.array([0.3, -0.2, 0.1]))
        scaled = apply_numeraire(paths, y, seed2=5)
        phi = GaugeScalar(GRID, np.concatenate([[0.0], np.cumsum(phi_mu * GRID.dt)]))
        for path, out in zip(paths.paths, scaled.paths):
            assert_same_bits(out, apply_price_gauge(PricePanel(GRID, path), phi).prices)

    def test_wrong_rho_shape_rejected(self):
        paths = simulate(constant_spec(3, 0.05, 0.2), ENV, GRID, n_paths=4, seed=6)
        for phi_sigma in (0.0, 0.1):
            y = NumeraireSpec(phi_mu=0.01, phi_sigma=phi_sigma, rho=np.array([0.1, 0.2]))
            with pytest.raises(ValueError, match="one correlation per asset"):
                apply_numeraire(paths, y, seed2=0)

    def test_inverse_asset_numeraire_freezes_the_asset(self):
        # Y = 1/s up to drift: phi_sigma = sigma, rho = -1, phi_mu = -mu + sigma^2
        # makes the rescaled asset constant along every path.
        mu, sigma = 0.06, 0.2
        spec = constant_spec(1, mu, sigma)
        paths = simulate(spec, ENV, GRID, n_paths=64, seed=21)
        y = NumeraireSpec(phi_mu=-mu + sigma**2, phi_sigma=sigma, rho=np.array([-1.0]))
        scaled = apply_numeraire(paths, y, seed2=99)
        np.testing.assert_allclose(scaled.paths, 1.0, rtol=1e-10)

    def test_stochastic_numeraire_moments(self):
        # Rescaled asset is log-normal with drift mu + phi_mu + rho sigma phi_sigma
        # and volatility sqrt(sigma^2 + phi_sigma^2 + 2 rho sigma phi_sigma).
        mu, sigma = 0.06, 0.2
        phi_mu, phi_sigma, rho = 0.03, 0.1, 0.5
        n = 100_000
        spec = constant_spec(1, mu, sigma)
        paths = simulate(spec, ENV, GRID, n_paths=n, seed=33)
        y = NumeraireSpec(phi_mu=phi_mu, phi_sigma=phi_sigma, rho=np.array([rho]))
        scaled = apply_numeraire(paths, y, seed2=34)
        log_t = np.log(scaled.paths[:, -1, 0])
        t_end = GRID.horizon

        eff_mu = mu + phi_mu + rho * sigma * phi_sigma
        eff_sigma = np.sqrt(sigma**2 + phi_sigma**2 + 2 * rho * sigma * phi_sigma)
        mean_se = eff_sigma * np.sqrt(t_end) / np.sqrt(n)
        assert abs(log_t.mean() - (eff_mu - eff_sigma**2 / 2) * t_end) < 3 * mean_se
        var_se = eff_sigma**2 * t_end * np.sqrt(2.0 / n)
        assert abs(log_t.var() - eff_sigma**2 * t_end) < 3 * var_se

    def test_thread_count_does_not_change_rescaling(self):
        # 3 assets x 64 steps: three key blocks of 1365 paths, the last ragged
        y = NumeraireSpec(phi_mu=0.02, phi_sigma=0.1, rho=np.array([0.3, -0.2, 0.1]))
        for tag in NOISE_TAGS:
            paths = simulate(constant_spec(3, 0.05, 0.2, tag), ENV, GRID, n_paths=3000, seed=8)
            a = apply_numeraire(paths, y, seed2=9, n_jobs=1)
            for n_jobs in (2, 3):
                assert_same_bits(apply_numeraire(paths, y, seed2=9, n_jobs=n_jobs).paths, a.paths)

    def test_rho_vector_validated(self):
        with pytest.raises(ValueError, match="rho"):
            NumeraireSpec(phi_mu=0.0, phi_sigma=0.1, rho=np.array([0.9, 0.9]))


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


class TestReturnVolatility:
    def test_constant_samples_have_zero_volatility(self):
        assert return_volatility(np.full(100, 0.05)) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_shift_cancels_exactly(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(0.05, 0.3, size=(500, GRID.steps))
        shift = np.sin(GRID.interval_starts())  # same shift for every sample
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
            PathSet(grid=GRID, paths=bad, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.5])
    def test_nonfinite_or_negative_price_rejected(self, value):
        bad = np.ones((3, GRID.n_points, 2))
        bad[1, 5, 1] = value
        with pytest.raises(ValueError, match="^paths must be finite and strictly positive$"):
            PathSet(grid=GRID, paths=bad, seed=0)

    def test_wrong_time_axis_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            PathSet(grid=GRID, paths=np.ones((1, 7, 1)), seed=0)
