"""Batch command-line surface.

Subcommands: simulate, gauge, riskfree, price, discount, sensitivity.
``simulate`` reports per-asset statistics of the terminal prices, reduced
as the Monte Carlo blocks come in (:func:`gaugeport.sim.terminal_stats`),
so it holds neither paths nor terminal prices.  Every run embeds the
config hash and seed in its report.  Only gauge and discount read
``--panel`` and ``--normalize``; either flag on another command is a usage
error.  Exit codes:
0 success, 1 usage error, 2 computation error, a failed allocation
included.  GAUGEPORT_THREADS (ASCII decimal digits for an integer >= 1,
default 1) sets the Monte Carlo worker count of simulate and riskfree,
whose reports do not depend on it; any other value is a usage error.
Nothing else reads the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import discounting, io, pricer, riskfree, sim
from .catalog import build_process
from .grid import TimeGrid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2


def _thread_count() -> int:
    raw = os.environ.get("GAUGEPORT_THREADS", "1")
    # ASCII digits only: int() also takes "1_0", " 2", "+3" and non-ASCII digits
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise UsageError(f"GAUGEPORT_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _sim_inputs(config: io.RunConfig):
    section = config.section("simulate")
    # load_config checks that horizon is a whole number of dt steps
    steps = round(section["horizon"] / section["dt"])
    return section, TimeGrid(dt=section["dt"], steps=steps)


def _process(section: dict, n_assets: int) -> sim.ProcessSpec:
    # load_config checked the parameters; what is left depends on the run's n_assets
    try:
        return build_process(
            section["process"], section["process_params"], n_assets, section["noise"], section["xi"]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_simulate(args, config: io.RunConfig) -> dict:
    section, grid = _sim_inputs(config)
    n_paths, n_assets, seed = section["n_paths"], section["n_assets"], section["seed"]
    # the paths start at 1, so the terminal prices are the gross returns
    stats = sim.terminal_stats(_process(section, n_assets), grid, n_paths, seed, n_jobs=_thread_count())
    body = {
        "n_paths": n_paths,
        "n_assets": n_assets,
        "steps": grid.steps,
        "dt": grid.dt,
        "terminal_mean": stats.mean,
        "terminal_std": stats.std,
        "log_return_mean": stats.log_mean,
    }
    return {"seed": seed, "body": body}


def cmd_gauge(args, config: io.RunConfig) -> dict:
    if not args.panel:
        raise UsageError("gauge requires --panel")
    panel = io.ingest(args.panel, normalize=args.normalize)
    weights = riskfree.WeightVector.equal(panel.n_assets)
    result = riskfree.extract_market_gauge(panel, weights)
    body = {
        "asset_ids": list(panel.asset_ids or ()),
        "a_field": result.a.a,
        "b_diag": result.b.diag,
        "portfolio_value": result.portfolio_value_series,
    }
    return {"seed": None, "body": body}


def cmd_riskfree(args, config: io.RunConfig) -> dict:
    section, grid = _sim_inputs(config)
    rf = config.section("riskfree")
    seed = section["seed"]
    sizes = list(rf["sizes"])
    n_max = max(sizes)
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    w_b = rng.uniform(0.5, 1.5, n_max)
    w_b /= w_b.sum()
    study = riskfree.riskfree_studies(
        _process(section, n_max), grid, riskfree.WeightVector(w_b),
        sizes, rf["n_paths"], seed, n_jobs=_thread_count(),
    )
    body = {
        "sizes": list(study.sizes),
        "sigma_hats": study.sigma_hats,
        "slope": study.slope,
        "analytic_slope": study.analytic_slope,
        "etemadi_divergences": study.divergences,
    }
    return {"seed": seed, "body": body}


def cmd_price(args, config: io.RunConfig) -> dict:
    pde = config.section("pde")
    problem = pricer.vanilla_problem(
        pde["payoff"], pde["strike"], pde["sigma"], pde["tau"],
        a_field=pde["a"], b_scalar=pde["b"], n_s=pde["n_s"], n_t=pde["n_t"],
    )
    today = pricer.solve_today(problem)
    strike = pde["strike"]
    stride = max(1, today.s_grid.size // 32)
    body = {
        "at_the_money_value": today.value_at(strike),
        "at_the_money_delta": today.delta_at(strike),
        "s_slice": today.s_grid[::stride],
        "value_slice": today.values[::stride],
    }
    return {"seed": None, "body": body}


def cmd_discount(args, config: io.RunConfig) -> dict:
    if not args.panel:
        raise UsageError("discount requires --panel")
    disc = config.section("discount")
    panel = io.ingest(args.panel, normalize=args.normalize)
    report = discounting.empirical_pipeline(panel, window=disc["window"])
    body = {
        "asset_ids": list(report.asset_ids),
        "final_values": report.final_values,
        "metadata": report.metadata,
        "cash_series_label": f"{report.metadata['cash_label']} (risk-free units)",
        "cash_series_times": panel.grid.points(),
        "cash_series_values": report.cash_values,
    }
    return {"seed": None, "body": body}


def cmd_sensitivity(args, config: io.RunConfig) -> dict:
    sens = config.section("sensitivity")
    n, seed = sens["n_assets"], sens["seed"]
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    gradients = rng.standard_normal((n, sens["n_factors"]))
    problem = riskfree.SensitivityProblem(gradients, cap=sens["cap_c"] / n)
    result = riskfree.sensitivity_neutral_weights(problem)
    body = {
        "weights": result.weights.w,
        "residual": result.residual,
        "exact": result.exact,
        "iterations": result.iterations,
        "active_set_steps": result.active_set_steps,
        "duality_gap": result.duality_gap,
        "stop_reason": result.stop_reason,
        "equal_weight_residual": float(np.linalg.norm(gradients.T @ np.full(n, 1.0 / n))),
    }
    return {"seed": seed, "body": body}


class UsageError(ValueError):
    pass


#: The commands that read ``--panel`` and ``--normalize``.
_PANEL_COMMANDS = ("gauge", "discount")

_COMMANDS = {
    "simulate": cmd_simulate,
    "gauge": cmd_gauge,
    "riskfree": cmd_riskfree,
    "price": cmd_price,
    "discount": cmd_discount,
    "sensitivity": cmd_sensitivity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeport", description="Gauge-invariant portfolio analytics"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="YAML run configuration", default=None)
    parser.add_argument("--panel", help="PanelFile CSV input", default=None)
    parser.add_argument("--out", help="report output path", default="report.yaml")
    parser.add_argument(
        "--normalize", action="store_true",
        help="rescale ingested prices to 1 at inception",
    )
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="canonical report form for determinism comparisons",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command not in _PANEL_COMMANDS:
        for flag, given in (("--panel", args.panel is not None), ("--normalize", args.normalize)):
            if given:
                print(f"error: {args.command} does not read {flag}", file=sys.stderr)
                return EXIT_USAGE
    try:
        config = io.load_config(args.config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        outcome = _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        # numpy's allocation failure names the array size it could not get
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        io.write_report(
            args.out, args.command, outcome["body"], config,
            seed=outcome["seed"], timestamp=not args.no_timestamp,
        )
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
