"""End-to-end acceptance criteria.

Each test covers one acceptance criterion and emits a single PASS/FAIL line
(visible with `pytest -v`, or on stdout with `pytest -s`).  Tolerances are
pinned; a red test here means the library violates a core guarantee.
"""

import numpy as np

from gaugeport import (
    GaugeFieldA,
    GaugeScalar,
    PricePanel,
    TimeGrid,
    WeightVector,
    balance_residuals,
    bs_closed_form,
    bs_closed_form_rate,
    constant_spec,
    cross_term,
    extract_market_gauge,
    gauge_discount,
    merton_residual,
    real_return,
    return_volatility,
    sensitivity_neutral_weights,
    simulate,
    solve_today,
    textbook_discount,
    to_riskfree_units,
    vanilla_problem,
)
from gaugeport.riskfree import SensitivityProblem, riskfree_studies
from gaugeport.sim import EnvironmentSeries, sample_joint_numeraire


def report(line: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


class TestAcceptance:
    def test_c01_textbook_discount_two_thirds(self):
        value = textbook_discount(TimeGrid(10.0, 1), 0.0406)
        ok = abs(value - 0.666) <= 1e-3
        report(f"C1 ten-year 4.06% textbook discount = {value:.4f} (0.666 +/- 0.001)", ok)

    def test_c02_gauge_invariance_fuzz(self):
        grid = TimeGrid(0.02, 50)
        rng = np.random.default_rng(42)
        logv = np.cumsum(rng.normal(0.001, 0.02, grid.n_points))
        values = np.exp(logv - logv[0])
        a = rng.normal(-0.03, 0.05, grid.steps)
        mu = rng.normal(0.05, 0.1, grid.steps)
        sigma = rng.uniform(0.0, 0.4, grid.steps)
        samples = rng.normal(0.05, 0.3, (400, grid.steps))

        worst_rr = worst_gd = worst_rv = worst_tb = 0.0
        for _ in range(100):
            phi = GaugeScalar(grid, rng.normal(0.0, 0.5, grid.n_points))
            rate = phi.rate()

            rr_base = real_return(grid, values, GaugeFieldA(grid, a))
            rr_shift = real_return(grid, values * np.exp(phi.phi), GaugeFieldA(grid, a - rate))
            worst_rr = max(worst_rr, float(np.max(np.abs(rr_shift - rr_base))))

            gd_base = gauge_discount(grid, mu, sigma, a)
            gd_shift = gauge_discount(grid, mu + rate, sigma, a - rate)
            worst_gd = max(worst_gd, abs(gd_shift / gd_base - 1.0))

            worst_rv = max(
                worst_rv,
                abs(return_volatility(samples + rate) - return_volatility(samples)),
            )

            tb_base = textbook_discount(grid, mu)
            tb_shift = textbook_discount(grid, mu - rate)
            predicted = tb_base * np.exp(phi.phi[-1] - phi.phi[0])
            worst_tb = max(worst_tb, abs(tb_shift / predicted - 1.0))

        invariant_ok = max(worst_rr, worst_gd, worst_rv) <= 1e-10
        textbook_ok = worst_tb <= 1e-12
        report(
            "C2 100-shift gauge fuzz: real return/gauge discount/volatility drift "
            f"{max(worst_rr, worst_gd, worst_rv):.2e} <= 1e-10; textbook factor moves by "
            f"exactly exp(phi(T)-phi(0)) (dev {worst_tb:.2e} <= 1e-12)",
            invariant_ok and textbook_ok,
        )

    def test_c03_volatility_scaling_inverse_sqrt_n(self):
        grid = TimeGrid(1.0 / 64, 8)
        env = EnvironmentSeries.constant(grid)
        mus = np.random.default_rng(2024).uniform(0.0, 0.1, 4096)
        spec = constant_spec(4096, mus, 0.25)
        # the result does not depend on n_jobs: two threads only shorten the run
        result = riskfree_studies(
            spec, env, grid, WeightVector.equal(4096), [16, 64, 256, 1024, 4096], 10_000,
            seed=101, n_jobs=2,
        )
        slope_ok = -0.55 <= result.slope <= -0.45
        analytic_ok = abs(result.analytic_slope + 0.5) <= 1e-12
        report(
            f"C3 sigma_hat ~ N^-1/2: fitted slope {result.slope:.4f} in [-0.55, -0.45], "
            f"analytic slope exactly -1/2 (dev {abs(result.analytic_slope + 0.5):.1e})",
            slope_ok and analytic_ok,
        )

    def test_c04_common_limit_across_weightings(self):
        grid = TimeGrid(1.0 / 64, 8)
        env = EnvironmentSeries.constant(grid)
        n = 4096
        rng = np.random.default_rng(2024)
        sigmas = rng.uniform(0.1, 0.35, n)
        mus = rng.uniform(0.0, 0.1, n)
        spec = constant_spec(n, mus, sigmas)
        wb = np.random.Generator(np.random.Philox(key=[77, 0])).uniform(0.5, 1.5, n)
        sizes, n_paths = [64, 256, 1024, 4096], 2000
        result = riskfree_studies(
            spec, env, grid, WeightVector(wb / wb.sum()), sizes, n_paths, seed=202
        )
        # To first order in dt the mean cumulative log-return of weights w is
        # T (sum w mu - sum w^2 sigma^2 / 2), and the two weightings' per-path
        # difference has variance T sum (w_a - w_b)^2 sigma^2.  Each divergence
        # must lie within that drift gap plus 5 standard errors, and the
        # envelope itself must shrink with N; neither depends on the seed.
        horizon = grid.horizon
        envelope = []
        for m in sizes:
            wa = np.full(m, 1.0 / m)
            wm = wb[:m] / wb[:m].sum()
            drift_gap = horizon * abs((wa - wm) @ mus[:m] - 0.5 * ((wa**2 - wm**2) @ sigmas[:m] ** 2))
            se = np.sqrt(horizon * ((wa - wm) ** 2 @ sigmas[:m] ** 2) / n_paths)
            envelope.append(drift_gap + 5.0 * se)
        envelope = np.array(envelope)
        within = float(np.max(result.divergences / envelope))
        shrink = envelope[-1] / envelope[0]
        report(
            "C4 two positive weightings converge to one limit: divergences within the "
            f"drift-gap + 5 SE envelope (worst {within:.2f} of it); envelope at N=4096 is "
            f"{100 * shrink:.1f}% of N=64 (< 20%)",
            within <= 1.0 and shrink < 0.2,
        )

    def test_c05_pde_matches_closed_form_second_order(self):
        exact = bs_closed_form(100, 100, 0.2, 1.0)
        errors = {}
        for n in (400, 800):
            today = solve_today(vanilla_problem("call", 100.0, 0.2, 1.0, n_s=n, n_t=n))
            errors[n] = abs(today.value_at(100.0) - exact)
        rel = errors[400] / exact
        ratio = errors[400] / errors[800]
        report(
            f"C5 Crank-Nicolson ATM call: rel error {rel:.2e} <= 1e-3 at 400^2; "
            f"error ratio 400/800 = {ratio:.2f} in [3, 5]",
            rel <= 1e-3 and 3.0 <= ratio <= 5.0,
        )

    def test_c06_constant_a_reduces_to_rate_pricing(self):
        r = 0.05
        today = solve_today(vanilla_problem("call", 100.0, 0.2, 1.0, a_field=-r))
        exact = bs_closed_form_rate(100, 100, 0.2, 1.0, r)
        rel = abs(today.value_at(100.0) - exact) / exact
        report(f"C6 A = -5% solve vs textbook rate closed form: rel error {rel:.2e} <= 1e-3", rel <= 1e-3)

    def test_c07_market_gauge_round_trip(self):
        grid = TimeGrid(0.01, 100)
        spec = constant_spec(8, 0.05, 0.2)
        paths = simulate(spec, EnvironmentSeries.constant(grid), grid, 1, seed=404)
        panel = PricePanel(grid=grid, prices=paths.paths[0])
        w = WeightVector.equal(8)
        result = extract_market_gauge(panel, w)
        primed = to_riskfree_units(panel, result.portfolio_value_series)
        a_prime = extract_market_gauge(primed, w).a.a
        rr = real_return(grid, result.portfolio_value_series, result.a)
        ok = np.max(np.abs(a_prime)) <= 1e-12 and np.max(np.abs(rr)) <= 1e-12
        report(
            "C7 risk-free units round trip: |A'| max "
            f"{np.max(np.abs(a_prime)):.1e} <= 1e-12; risk-free real return max "
            f"{np.max(np.abs(rr)):.1e} <= 1e-12",
            ok,
        )

    def test_c08_discrete_balance_identities(self):
        grid = TimeGrid(0.01, 100)
        spec = constant_spec(8, 0.05, 0.2)
        paths = simulate(spec, EnvironmentSeries.constant(grid), grid, 1, seed=505)
        panel = PricePanel(grid=grid, prices=paths.paths[0])
        result = extract_market_gauge(panel, WeightVector.equal(8))
        r_const, r_self = balance_residuals(panel, result)
        scale = np.max(result.portfolio_value_series) / grid.dt
        worst = max(np.max(np.abs(r_const)), np.max(np.abs(r_self))) / scale
        report(
            f"C8 constancy/self-financing balances vanish identically (scaled residual {worst:.1e} <= 1e-12)",
            worst <= 1e-12,
        )

    def test_c09_numeraire_cross_term_trichotomy(self):
        grid = TimeGrid(1.0 / 64, 64)
        cases = [
            ("deterministic numeraire", 0.0, 0.0, 0.0),
            ("independent numeraire", 0.2, 0.0, 0.0),
            ("perfectly correlated", 0.2, 1.0, 0.04),
        ]
        lines, ok = [], True
        for label, phi_sigma, rho, target in cases:
            y, pi = sample_joint_numeraire(
                grid, 100_000, seed=303, pi_mu=0.05, pi_sigma=0.2,
                phi_mu=0.03, phi_sigma=phi_sigma, rho=rho,
            )
            estimate, se = cross_term(y, pi, grid.horizon)
            tol = 3 * se + 1e-4  # MC band plus O(dt) drift cross-talk
            good = abs(estimate - target) <= tol
            ok = ok and good
            lines.append(f"{label} {estimate:+.2e} vs {target:+.2e}")
        report("C9 cross-term trichotomy within 3 SE: " + "; ".join(lines), ok)

    def test_c10_sensitivity_neutral_weights(self):
        rng = np.random.default_rng(5)
        small = SensitivityProblem(rng.standard_normal((6, 3)) + 0.3, cap=4.0 / 6)
        res_small = sensitivity_neutral_weights(small)
        # f = residual^2 is convex and f - f* <= duality gap, so this bound on
        # residual - optimum is proven, not found by searching for the optimum
        bound = min(res_small.residual, res_small.duality_gap / res_small.residual)
        small_ok = bound <= 1e-6

        rng = np.random.default_rng(6)
        big = SensitivityProblem(rng.standard_normal((256, 3)) + 0.2, cap=4.0 / 256)
        res_big = sensitivity_neutral_weights(big)
        w = res_big.weights.w
        feasible = (
            abs(w.sum() - 1.0) <= 1e-9
            and np.all(w >= -1e-12)
            and np.all(w <= big.cap + 1e-12)
        )
        big_ok = res_big.residual <= 1e-8 and feasible
        report(
            f"C10 sensitivity-neutral weights: N=6 residual {res_small.residual:.2e} is within "
            f"{bound:.2e} <= 1e-6 of the optimum; N=256 residual {res_big.residual:.2e} <= 1e-8 "
            "with simplex/cap constraints",
            small_ok and big_ok,
        )

    def test_c11_two_factor_equation_residuals(self):
        # degree-one candidates solve for every field configuration
        worst = 0.0
        for alpha in (-2.0, 0.5, 3.0):
            for beta in (-1.0, 0.0, 2.5):
                for a in (-0.5, 0.0, 0.7):
                    for b in (-0.3, 0.0, 0.9):
                        residual = merton_residual(
                            v=alpha * 110.0 + beta * 0.9, dv_dt=0.0,
                            dv_ds=alpha, dv_dh=beta, d2v_ds2=0.0, d2v_dh2=0.0,
                            s=110.0, h=0.9, sigma1=0.2, sigma_hat=0.05, a=a, b=b,
                        )
                        scale = (1.0 + abs(alpha) * 110.0 + abs(beta)) * (1.0 + abs(a + b))
                        worst = max(worst, abs(residual) / scale)
        linear_ok = worst <= 1e-15

        # homogeneous closed-form candidate: residual bounded by the
        # finite-difference truncation error of the supplied derivatives
        sigma1, sigma_hat = 0.2, 0.05
        combined = float(np.hypot(sigma1, sigma_hat))
        tau, s, h = 0.7, 110.0, 0.9

        def v(t, s_, h_):
            return h_ * bs_closed_form(s_ / h_, 1.0, combined, tau - t)

        eps_t, eps_s, eps_h = 1e-5, 1e-3, 1e-5
        residual = merton_residual(
            v=v(0, s, h),
            dv_dt=(v(eps_t, s, h) - v(-eps_t, s, h)) / (2 * eps_t),
            dv_ds=(v(0, s + eps_s, h) - v(0, s - eps_s, h)) / (2 * eps_s),
            dv_dh=(v(0, s, h + eps_h) - v(0, s, h - eps_h)) / (2 * eps_h),
            d2v_ds2=(v(0, s + eps_s, h) - 2 * v(0, s, h) + v(0, s - eps_s, h)) / eps_s**2,
            d2v_dh2=(v(0, s, h + eps_h) - 2 * v(0, s, h) + v(0, s, h - eps_h)) / eps_h**2,
            s=s, h=h, sigma1=sigma1, sigma_hat=sigma_hat, a=0.03, b=0.01,
        )
        closed_ok = abs(residual) <= 1e-4
        report(
            f"C11 two-factor equation: degree-one residual {worst:.1e} (rounding only); "
            f"homogeneous closed form residual {abs(residual):.1e} <= 1e-4 truncation bound",
            linear_ok and closed_ok,
        )
