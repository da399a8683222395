import sys
import threading
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
    PATH_BLOCK,
    EnvironmentSeries,
    ProcessSpec,
    StepKernel,
    TaskPool,
    iter_blocks,
    noise_block,
    noise_sub_blocks,
    sample_joint_numeraire,
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
        # each worker holds one noise block, computed in place into the output
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
        noise_bytes = PATH_BLOCK * grid.steps * spec.n_assets * 8
        assert peak <= paths.paths.nbytes + 4 * noise_bytes


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


def run_with_switch_interval(fn, interval=1e-6, timeout=60):
    """Run fn in a thread under a short switch interval; True if it finished."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        runner = threading.Thread(target=fn, daemon=True)
        runner.start()
        runner.join(timeout=timeout)
    finally:
        sys.setswitchinterval(previous)
    return not runner.is_alive()


#: 8 steps x 325 assets: 2600 cells per path, so a noise sub-block holds 100
#: paths and a 512-path block ends in a ragged 12-path sub-block.
GRID8 = TimeGrid(t0=0.0, dt=1.0 / 64, steps=8)
WIDE = 325
RAGGED_PATHS = PATH_BLOCK + 25


class TestSubBlocks:
    """Drawing a block as consecutive sub-blocks gives the whole block's sample."""

    @pytest.mark.parametrize("tag", ["normal", "uniform", "two-point"])
    def test_sub_blocks_concatenate_to_the_block(self, tag):
        subs = list(noise_sub_blocks(4, 1, PATH_BLOCK, GRID8.steps, WIDE, tag))
        sizes = [len(z) for _first, z in subs]
        assert [first for first, _z in subs] == list(np.cumsum([0] + sizes[:-1]))
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
        whole = noise_block(4, 1, PATH_BLOCK, GRID8.steps, WIDE, tag)
        assert_same_bits(np.concatenate([z for _first, z in subs]), whole)

    @pytest.mark.parametrize("tag", ["normal", "uniform", "two-point"])
    def test_simulate_matches_whole_block_cumprod(self, tag):
        spec = constant_spec(WIDE, np.linspace(-0.05, 0.1, WIDE), np.linspace(0.0, 0.4, WIDE), tag)
        env = EnvironmentSeries.constant(GRID8)
        s0 = np.linspace(0.5, 2.0, WIDE)
        kernel = StepKernel.of(spec, env, GRID8)
        expected = np.empty((RAGGED_PATHS, GRID8.n_points, WIDE))
        expected[:, 0] = s0
        for block, start, size in iter_blocks(RAGGED_PATHS):
            z = noise_block(7, block, size, GRID8.steps, WIDE, tag)
            z *= kernel.scale
            z += kernel.drift
            expected[start : start + size, 1:] = np.cumprod(np.exp(z), axis=1) * s0
        for n_jobs in (1, 2):
            paths = simulate(spec, env, GRID8, RAGGED_PATHS, seed=7, s0=s0, n_jobs=n_jobs)
            assert_same_bits(paths.paths, expected)

    def test_numeraire_matches_whole_blocks(self, monkeypatch):
        spec = constant_spec(WIDE, 0.05, 0.2)
        env = EnvironmentSeries.constant(GRID8)
        paths = simulate(spec, env, GRID8, RAGGED_PATHS, seed=8)
        rho = np.full(WIDE, 0.5 / np.sqrt(WIDE))
        y = NumeraireSpec(phi_mu=0.02, phi_sigma=0.1, rho=rho)
        streamed = apply_numeraire(paths, y, seed2=9, n_jobs=2)
        monkeypatch.setattr(sim, "_SUB_CELLS", 1 << 62)  # one sub-block per block
        assert_same_bits(streamed.paths, apply_numeraire(paths, y, seed2=9).paths)

    def test_studies_hold_sub_blocks_not_blocks(self):
        # 1024 assets x 64 steps: one block of noise is 256 MiB, a sub-block 2 MiB
        grid = TimeGrid(t0=0.0, dt=1.0 / 64, steps=64)
        n = 1024
        spec = constant_spec(n, 0.05, 0.2)
        env = EnvironmentSeries.constant(grid)
        sub_bytes = sim._SUB_CELLS * 8
        assert PATH_BLOCK * grid.steps * n * 8 == 128 * sub_bytes
        wb = np.random.default_rng(1).uniform(0.5, 1.5, n)
        weights = (WeightVector.equal(n), WeightVector(wb / wb.sum()))
        sizes = [16, 64, 256, n]
        studies = [
            lambda: convergence_study(spec, env, grid, sizes, PATH_BLOCK, seed=3, n_jobs=2),
            lambda: etemadi_check(spec, env, grid, *weights, PATH_BLOCK, seed=3, sizes=sizes, n_jobs=2),
            lambda: riskfree_studies(spec, env, grid, *weights, sizes, PATH_BLOCK, seed=3, n_jobs=2),
        ]
        for study in studies:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                study()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # a few sub-blocks in flight, the block's per-row, per-size
            # log-returns and the kernel's [steps, N] terms
            assert peak <= 8 * sub_bytes

    def test_long_simulate_holds_output_plus_few_sub_blocks(self):
        # 1260 steps x 512 assets: a sub-block is one path
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
        # the kernel's two [steps, N] terms, at most 2 * n_jobs + 1 sub-blocks
        # in flight, one to spare
        assert peak <= paths.paths.nbytes + 8 * path_bytes


class TestTaskPool:
    def test_results_in_task_order(self):
        with TaskPool(3) as pool:
            assert pool.map(lambda a, b: a * b, [(k, k + 1) for k in range(20)]) == [
                k * (k + 1) for k in range(20)
            ]

    def test_nested_maps_on_one_pool_finish(self):
        # more workers than cores and a short switch interval, so tasks
        # interleave; every outer task maps its own subtasks on the same pool
        def subtask(j, k):
            return noise_block(j, k, 2, 3, 4, "normal").sum()

        nested = []

        def run():
            with TaskPool(4) as pool:
                outer = lambda j: pool.map(subtask, [(j, k) for k in range(6)])  # noqa: E731
                nested.extend(pool.map(outer, [(j,) for j in range(8)]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert nested == [[subtask(j, k) for k in range(6)] for j in range(8)]

    def test_nested_pipelines_on_one_pool_finish(self, monkeypatch):
        # every outer task streams generated subtasks onto the same pool, as
        # simulate's block tasks stream their noise sub-blocks (one path each)
        monkeypatch.setattr(sim, "_SUB_CELLS", 1)

        def transform(first, z):
            return float(z.sum())

        nested = []

        def run():
            with TaskPool(4) as pool:
                def produce(j):
                    return pool.map(transform, noise_sub_blocks(j, 0, 40, 3, 4, "normal"))

                nested.extend(pool.map(produce, ((j,) for j in range(8))))

        assert run_with_switch_interval(run)
        assert nested == [
            [float(z.sum()) for z in noise_block(j, 0, 40, 3, 4, "normal")] for j in range(8)
        ]

    def test_generator_mapped_from_a_worker(self):
        with TaskPool(2) as pool:
            inner = lambda j: pool.map(lambda k: j * k, ((k,) for k in range(5)))  # noqa: E731
            assert pool.map(inner, [(1,), (2,)]) == [[0, 1, 2, 3, 4], [0, 2, 4, 6, 8]]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_generated_arguments_are_released(self, n_jobs):
        # two producers whose subtasks mostly run inline after a cancel: a
        # cancelled work item still queued in the executor must not keep its
        # argument alive
        live = set()
        most = []

        def produce(j):
            for k in range(40):
                arg = np.zeros(8)
                live.add((j, k))
                weakref.finalize(arg, live.discard, (j, k))
                most.append(len(live))
                yield (arg,)
                del arg

        def run(pool):
            return pool.map(lambda j: len(pool.map(lambda arg: arg.sum(), produce(j))), [(0,), (1,)])

        with TaskPool(n_jobs) as pool:
            assert run(pool) == [40, 40]
        assert not live
        # per producer: the 2 * n_jobs pending tasks and the one being drawn
        assert max(most) <= 2 * (2 * n_jobs + 1)

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
        # the seeding scheme: one Philox stream per (seed, path block) key
        gen = np.random.Generator(np.random.Philox(key=[seed, block]))
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
        spec = constant_spec(3, 0.05, 0.2)
        paths = simulate(spec, ENV, GRID, n_paths=1100, seed=8)
        y = NumeraireSpec(phi_mu=0.02, phi_sigma=0.1, rho=np.array([0.3, -0.2, 0.1]))
        a = apply_numeraire(paths, y, seed2=9, n_jobs=1)
        b = apply_numeraire(paths, y, seed2=9, n_jobs=2)
        assert np.array_equal(a.paths, b.paths)

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
        args = (GRID, 1100, 12, 0.05, 0.2, 0.03, 0.1, 0.4)
        y1, pi1 = sample_joint_numeraire(*args, n_jobs=1)
        y2, pi2 = sample_joint_numeraire(*args, n_jobs=2)
        assert np.array_equal(y1, y2) and np.array_equal(pi1, pi2)

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
