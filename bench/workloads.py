"""Benchmark workloads: seeded inputs, the gaugeport commands, and their oracles.

Every command's report is checked against an oracle that does not use the
package: theory bounds for the Monte Carlo commands, a numpy re-computation
for the panel commands, and the Black-Scholes closed form and the
constraint set for the pricing commands.

Two workloads, each built from two command groups (sizes are per pass;
``smoke`` shrinks them to seconds in total):

``mc`` -- Monte Carlo only; no CSV, gauge extraction, PDE or projection.

* stream group: ``riskfree`` at the default study shape (sizes
  16/64/256/1024, 64 steps, 256 paths).  Streams Philox draws into
  portfolio reductions without storing paths.
* paths group: two ``simulate`` runs on two threads that store full paths,
  a "wide" one (4096 paths x 8 steps x 512 assets, 8 Philox blocks) and a
  "long" one (16 paths x 1260 daily steps x 512 assets, dominated by the
  per-cell drift/volatility evaluation).

``panel_pricing`` -- no Monte Carlo.

* panel group: ``gauge --normalize`` then ``discount --normalize`` on a
  synthetic PanelFile CSV (316 consecutive calendar dates, so an exactly
  uniform grid, and 128 columns including cash).  CSV parsing, dense gauge
  extraction, rolling drift/vol, and one write-heavy and one small report.
* pricing group: a ladder of ``price`` solves plus ``sensitivity`` solves;
  small arrays, bound by the per-call overhead of PDE steps and projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

NAMES = ("mc", "panel_pricing")

#: Relative tolerance of the PDE solver against the closed forms at 400 x 400,
#: as the README states it.
PRICE_REL_TOL = 1e-3

#: Gradient seed of the sensitivity problem (64 assets, 32 factors, cap 2/N)
#: whose projected-gradient solve runs to the iteration cap.
MAX_ITER_SEED = 2


@dataclass
class Command:
    """One gaugeport invocation and the oracle for its report."""

    label: str
    argv: list[str]
    out: str
    check: Callable[[dict], list[tuple[str, bool, float]]]
    #: Set when the command is known to fail its check at the seed commit;
    #: it still counts in ok_ratio but not as a benchmark failure.
    known_defect: str | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path


def _command(work: Path, label: str, sub: str, config: dict | None, check,
             panel: Path | None = None, known_defect: str | None = None) -> Command:
    out = f"{label}.yaml"  # relative: each pass writes into its own directory
    # canonical reports, so that every pass's output can be compared byte for byte
    argv = [sub, "--out", out, "--no-timestamp"]
    if config is not None:
        argv += ["--config", str(_write_config(work / f"{label}.config.yaml", config))]
    if panel is not None:
        argv += ["--panel", str(panel), "--normalize"]
    return Command(label=label, argv=argv, out=out, check=check, known_defect=known_defect)


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


# ---------------------------------------------------------------------------
# mc_stream
# ---------------------------------------------------------------------------

def _etemadi_envelope(sizes: list[int], seed: int, n_paths: int, sigma: float, horizon: float):
    """Largest divergence consistent with a common limit, per universe size.

    To first order in dt the mean cumulative log-return of a rebalanced
    portfolio is (mu - sigma^2 |w|^2 / 2) T, so two weightings differ by
    sigma^2 T (|w_b|^2 - |w_a|^2) / 2, with a Monte Carlo standard error of
    sigma sqrt(T |w_a - w_b|^2 / n_paths).  The envelope is that difference
    plus five standard errors.
    """
    n_max = max(sizes)
    # the command draws its second weighting from this Philox key
    w_b = np.random.Generator(np.random.Philox(key=[seed, 1])).uniform(0.5, 1.5, n_max)
    out = []
    for n in sizes:
        wa = np.full(n, 1.0 / n)
        wb = w_b[:n] / w_b[:n].sum()
        drift_gap = 0.5 * sigma**2 * horizon * abs(wb @ wb - wa @ wa)
        se = sigma * math.sqrt(horizon * float((wa - wb) @ (wa - wb)) / n_paths)
        out.append(drift_gap + 5.0 * se)
    return np.array(out)


def _check_riskfree(sizes: list[int], envelope: np.ndarray):
    def check(report: dict) -> list[tuple[str, bool, float]]:
        r = report["report"]
        slope = float(r["slope"])
        sig = np.asarray(r["sigma_hats"], dtype=float)
        refit = float(np.polyfit(np.log(sizes), np.log(sig), 1)[0])
        div = np.asarray(r["etemadi_divergences"], dtype=float)
        return [
            ("riskfree.sizes", list(r["sizes"]) == sizes, 0.0),
            ("riskfree.slope_in_range", -0.55 <= slope <= -0.45, slope),
            ("riskfree.slope_refit", abs(refit - slope) <= 1e-9, abs(refit - slope)),
            ("riskfree.etemadi_within_envelope", bool(np.all(div <= envelope)), float(np.max(div / envelope))),
        ]

    return check


def _stream_group(seed, work: Path, smoke: bool) -> list[Command]:
    rng = np.random.default_rng(seed)
    sizes = [16, 32, 64, 128] if smoke else [16, 64, 256, 1024]
    n_paths = 32 if smoke else 256
    sim_seed = int(rng.integers(1, 2**31))
    sigma = 0.2
    config = {
        "simulate": {
            "seed": sim_seed, "horizon": 1.0, "dt": 1.0 / 64,
            "process": "constant", "process_params": {"mu": 0.05, "sigma": sigma},
        },
        "riskfree": {"sizes": sizes, "n_paths": n_paths},
    }
    envelope = _etemadi_envelope(sizes, sim_seed, n_paths, sigma, 1.0)
    return [_command(work, "riskfree", "riskfree", config, _check_riskfree(sizes, envelope))]


# ---------------------------------------------------------------------------
# mc_paths
# ---------------------------------------------------------------------------

def _check_simulate(n_paths: int, n_assets: int, steps: int, mu: float):
    def check(report: dict) -> list[tuple[str, bool, float]]:
        r = report["report"]
        mean = np.asarray(r["terminal_mean"], dtype=float)
        std = np.asarray(r["terminal_std"], dtype=float)
        horizon = steps * float(r["dt"])
        # assets are independent, so the pooled mean's standard error pools
        # the per-asset sample variances over every path of every asset
        se = math.sqrt(float(np.mean(std**2)) / (n_paths * n_assets))
        z = (float(mean.mean()) - math.exp(mu * horizon)) / se
        shape_ok = (r["n_paths"], r["n_assets"], r["steps"], mean.size) == (
            n_paths, n_assets, steps, n_assets,
        )
        return [
            ("simulate.shape", shape_ok, 0.0),
            ("simulate.terminal_mean_within_5se", abs(z) <= 5.0, z),
        ]

    return check


def _paths_group(seed, work: Path, smoke: bool) -> list[Command]:
    rng = np.random.default_rng(seed)
    n_assets = 16 if smoke else 512
    runs = {
        # label: (n_paths, dt, horizon)
        "simulate_wide": (1024 if smoke else 4096, 0.125, 1.0),
        "simulate_long": (16, 1.0 / 252, 0.25 if smoke else 5.0),
    }
    commands = []
    for label, (n_paths, dt, horizon) in runs.items():
        mu = float(rng.uniform(0.02, 0.08))
        sigma = float(rng.uniform(0.1, 0.3))
        config = {
            "simulate": {
                "n_paths": n_paths,
                "n_assets": n_assets,
                "dt": dt,
                "horizon": horizon,
                "seed": int(rng.integers(1, 2**31)),
                "process": "constant",
                "process_params": {"mu": mu, "sigma": sigma},
            }
        }
        steps = max(1, round(horizon / dt))
        check = _check_simulate(n_paths, n_assets, steps, mu)
        commands.append(_command(work, label, "simulate", config, check))
    return commands


# ---------------------------------------------------------------------------
# panel
# ---------------------------------------------------------------------------

def write_panel(path: Path, seed, rows: int, n_cols: int) -> np.ndarray:
    """Seeded PanelFile CSV: consecutive calendar dates, every column 1 on row 0."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / 365.25
    mu = rng.uniform(-0.02, 0.12, n_cols)
    sigma = rng.uniform(0.05, 0.4, n_cols)
    mu[-1], sigma[-1] = 0.02, 0.005  # the cash column
    z = rng.standard_normal((rows - 1, n_cols))
    logret = (mu - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * z
    prices = np.vstack([np.ones(n_cols), np.exp(np.cumsum(logret, axis=0))])
    start = date(1990, 1, 1) + timedelta(days=int(rng.integers(0, 10_000)))
    labels = [f"asset{i:03d}" for i in range(n_cols - 1)] + ["USD#cash"]
    lines = ["date," + ",".join(labels)]
    for k in range(rows):
        day = (start + timedelta(days=k)).isoformat()
        lines.append(day + "," + ",".join(repr(float(p)) for p in prices[k]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return prices


def _equal_weight_values(prices: np.ndarray) -> np.ndarray:
    """Value of the portfolio rebalanced to equal weights every step, from 1."""
    gross = np.mean(prices[1:] / prices[:-1], axis=1)
    return np.concatenate([[1.0], np.cumprod(gross)])


def _check_gauge(prices: np.ndarray):
    steps = prices.shape[0] - 1
    dt = (steps / 365.25) / steps
    values = _equal_weight_values(prices)
    a_ref = -np.diff(np.log(values)) / dt

    def check(report: dict) -> list[tuple[str, bool, float]]:
        r = report["report"]
        a_err = _rel(r["a_field"], a_ref)
        v_err = _rel(r["portfolio_value"], values)
        b_shape = np.shape(r["b_diag"]) == (steps, prices.shape[1])
        return [
            ("gauge.a_field_rel_1e-10", a_err <= 1e-10, a_err),
            ("gauge.portfolio_value_rel_1e-10", v_err <= 1e-10, v_err),
            ("gauge.b_diag_shape", b_shape, 0.0),
        ]

    return check


def _check_discount(prices: np.ndarray):
    riskfree = _equal_weight_values(prices[:, :-1])
    final_ref = np.append(prices[-1] / riskfree[-1], 1.0)
    cash_ref = prices[:, -1] / riskfree

    def check(report: dict) -> list[tuple[str, bool, float]]:
        r = report["report"]
        f_err = _rel(r["final_values"], final_ref)
        c_err = _rel(r["cash_series_values"], cash_ref)
        return [
            ("discount.final_values_rel_1e-10", f_err <= 1e-10, f_err),
            ("discount.cash_series_rel_1e-10", c_err <= 1e-10, c_err),
        ]

    return check


def _panel_group(seed, work: Path, smoke: bool) -> list[Command]:
    rows, n_cols = (64, 8) if smoke else (316, 128)
    panel = work / "panel.csv"
    prices = write_panel(panel, seed, rows, n_cols)
    return [
        _command(work, "gauge", "gauge", None, _check_gauge(prices), panel=panel),
        _command(work, "discount", "discount", None, _check_discount(prices), panel=panel),
    ]


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def closed_form(kind: str, spot: float, strike: float, sigma: float, tau: float, rate: float) -> float:
    """Black-Scholes value at constant rate; puts by put-call parity."""
    st = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma**2) * tau) / st
    call = spot * _norm_cdf(d1) - strike * math.exp(-rate * tau) * _norm_cdf(d1 - st)
    if kind == "call":
        return call
    return call - spot + strike * math.exp(-rate * tau)


def _check_price(kind: str, strike: float, sigma: float, a: float):
    # A = -r recovers textbook rate-r pricing; the value is read at the money
    ref = closed_form(kind, strike, strike, sigma, 1.0, -a)

    def check(report: dict) -> list[tuple[str, bool, float]]:
        err = abs(float(report["report"]["at_the_money_value"]) - ref) / ref
        return [("price.atm_rel_1e-3", err <= PRICE_REL_TOL, err)]

    return check


def _check_sensitivity(n: int, k: int, cap_c: float, seed: int):
    # the command draws its gradients from this Philox key
    g = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((n, k))
    cap = cap_c / n
    equal_res = float(np.linalg.norm(g.T @ np.full(n, 1.0 / n)))

    def check(report: dict) -> list[tuple[str, bool, float]]:
        r = report["report"]
        w = np.asarray(r["weights"], dtype=float)
        res = float(np.linalg.norm(g.T @ w))
        return [
            ("sensitivity.sum_to_one", abs(w.sum() - 1.0) <= 1e-9, abs(w.sum() - 1.0)),
            ("sensitivity.within_box", bool(w.min() >= 0.0 and w.max() <= cap * (1 + 1e-12)), float(w.max() / cap)),
            ("sensitivity.residual_recomputed", abs(res - float(r["residual"])) <= 1e-9 * max(1.0, res), res),
            ("sensitivity.residual_le_equal_weight", res <= equal_res, res / equal_res),
            ("sensitivity.equal_weight_residual", abs(float(r["equal_weight_residual"]) - equal_res) <= 1e-9 * equal_res, equal_res),
        ]

    return check


def _pricing_group(seed, work: Path, smoke: bool) -> list[Command]:
    rng = np.random.default_rng(seed)
    if smoke:
        ladder = [("call", 100.0, 0.1, 0.0, 400), ("put", 100.0, 0.2, -0.05, 400)]
        sens = [(16, 3, 4.0, None)]
    else:
        ladder = [
            (kind, strike, sigma, a, 400)
            for kind in ("call", "put")
            for strike in (80.0, 100.0, 125.0)
            for sigma in (0.1, 0.2, 0.4)
            for a in (0.0, -0.05)
        ]
        ladder += [("call", 100.0, 0.1, 0.0, 1600), ("put", 100.0, 0.2, -0.05, 1600)]
        # two seeded solves that converge in tens of projections, and one
        # fixed problem that runs projected gradient to its 2000-iteration
        # cap.  Seeded problems of that shape stop anywhere from 700 to 2000
        # iterations, which would make the pass time depend on the seed.
        sens = [(64, 3, 4.0, None), (64, 3, 4.0, None), (64, 32, 2.0, MAX_ITER_SEED)]
    commands = []
    for i in rng.permutation(len(ladder)):
        kind, strike, sigma, a, n = ladder[i]
        label = f"price_{kind}_{strike:g}_{sigma:g}_{a:g}_{n}"
        config = {"pde": {"payoff": kind, "strike": strike, "sigma": sigma, "tau": 1.0,
                          "a": a, "n_s": n, "n_t": n}}
        defect = None
        if sigma == 0.1 and n == 400:
            defect = ("sigma=0.1 at 400x400 misses the README's 1e-3; "
                      "1.4e-3 to 2.8e-3 when the benchmark was defined")
        commands.append(_command(work, label, "price", config, _check_price(kind, strike, sigma, a),
                                 known_defect=defect))
    for j, (n, k, cap_c, fixed_seed) in enumerate(sens):
        s = int(rng.integers(1, 2**31)) if fixed_seed is None else fixed_seed
        config = {"sensitivity": {"n_assets": n, "n_factors": k, "cap_c": cap_c, "seed": s}}
        commands.append(_command(work, f"sensitivity_{j}", "sensitivity", config,
                                 _check_sensitivity(n, k, cap_c, s)))
    return commands


_GROUPS = {"mc": (_stream_group, _paths_group), "panel_pricing": (_panel_group, _pricing_group)}


def build(name: str, seed: int, work: Path, smoke: bool = False) -> list[Command]:
    """Generate the workload's inputs under ``work`` from ``seed``; return its commands."""
    commands = []
    for k, group in enumerate(_GROUPS[name]):
        commands += group([seed, k], work, smoke)
    return commands


def parse_report(data: bytes) -> dict:
    return yaml.load(data, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
