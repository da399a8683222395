"""gaugeport benchmark: the `gaugeport` subcommands end to end, plus a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from a checkout of the repository: it imports gaugeport from ``src/``.
Inputs are generated from ``--seed`` before anything is timed.  Set-up time
is sampled from fresh interpreters that only import ``gaugeport.cli``.  A
worker interpreter (bench/worker.py) then imports ``gaugeport.cli`` and
repeats passes of the workload's commands through ``gaugeport.cli.main``
until ``--seconds`` have elapsed (at least three passes).  Afterwards every
report of every pass is checked against the workload's oracle.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` spends half the time on untraced passes and half on traced
ones, adds one pass under tracemalloc, and reports the per-layer metrics
from the spans (see bench/spans.py).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the machine facts, each metric with its sample
count, per-command times and the check results.  A full record goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_PROBES = 3
#: Allowance beyond the time budget for one worker's last pass and exit.
WORKER_TIMEOUT_S = 60
SUBCOMMANDS = ("simulate", "gauge", "riskfree", "price", "discount", "sensitivity")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "sim.noise_block.calls": "count",
    "sim.noise_block.busy_s": "s",
    "sim.noise_block.draws": "count",
    "sim.noise_block.mdraws_per_s": "Mdraw/s",
    "sim.iter_step_ratio_chunks.busy_s": "s",
    "sim.iter_step_ratio_chunks.self_s": "s",
    "sim.iter_step_ratio_chunks.chunks": "count",
    "riskfree.convergence_study.busy_s": "s",
    "riskfree.convergence_study.self_s": "s",
    "riskfree.convergence_study.draws_per_path_step": "count",
    "riskfree.etemadi_check.busy_s": "s",
    "riskfree.etemadi_check.self_s": "s",
    "riskfree.draw_use_ratio": "ratio",
    "sim.ProcessSpec.drift_matrix.busy_s": "s",
    "sim.ProcessSpec.vol_matrix.busy_s": "s",
    "sim.process_cells": "count",
    "sim.simulate.busy_s": "s",
    "sim.simulate.self_s": "s",
    "sim.simulate.bytes_out": "B",
    "sim.simulate.peak_alloc_mb": "MB",
    "io.ingest.calls": "count",
    "io.ingest.busy_s": "s",
    "io.ingest.cells": "count",
    "io.ingest.mb_per_s": "MB/s",
    "io.ingest.peak_alloc_mb": "MB",
    "riskfree.extract_market_gauge.calls": "count",
    "riskfree.extract_market_gauge.busy_s": "s",
    "riskfree.extract_market_gauge.peak_alloc_mb": "MB",
    "riskfree.rebalanced_quantities.calls": "count",
    "riskfree.rebalanced_quantities.busy_s": "s",
    "discounting.empirical_pipeline.busy_s": "s",
    "discounting.empirical_pipeline.self_s": "s",
    "discounting.cash_value_series.busy_s": "s",
    "discounting.rolling_drift_vol.busy_s": "s",
    "io.write_report.calls": "count",
    "io.write_report.busy_s": "s",
    "io.write_report.bytes_out": "B",
    "io.write_report.mb_per_s": "MB/s",
    "pricer.vanilla_problem.busy_s": "s",
    "pricer.solve_gauge_bs.calls": "count",
    "pricer.solve_gauge_bs.busy_s": "s",
    "pricer.solve_gauge_bs.node_steps": "count",
    "pricer.solve_gauge_bs.ns_per_node_step": "ns",
    "riskfree.sensitivity_neutral_weights.calls": "count",
    "riskfree.sensitivity_neutral_weights.busy_s": "s",
    "riskfree.sensitivity_neutral_weights.exact_ratio": "ratio",
    "riskfree.projected_gradient.busy_s": "s",
    "riskfree.project_capped_simplex.calls": "count",
    "riskfree.project_capped_simplex.busy_s": "s",
    "riskfree.project_capped_simplex.us_per_call": "us",
    "io.load_config.busy_s": "s",
    "cli.self_s": "s",
    "cli.self_share": "ratio",
    "setup.import_s": "s",
    "setup.scipy_stats_import_s": "s",
    "trace.overhead_s": "s",
    "pricer.atm_max_rel_err": "ratio",
    **{f"cmd.{sub}_s": "s" for sub in SUBCOMMANDS},
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def machine_facts(env: dict[str, str]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaugeport").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS"),
        "GAUGEPORT_THREADS": env.get("GAUGEPORT_THREADS"),
        # when set, every interpreter compiles gaugeport from source, which set-up time includes
        "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_worker(work: Path, env: dict, mode: str, commands: list, seconds: float,
               min_passes: int, tag: str) -> dict:
    """Start a fresh interpreter that runs passes; return its record."""
    wdir = work / tag
    wdir.mkdir()
    plan = {
        "mode": mode,
        "commands": [c.argv for c in commands],
        "seconds": seconds,
        "min_passes": min_passes,
        "workdir": str(wdir),
        "result": str(wdir / "result.json"),
        "spans_out": str(wdir / "spans.json"),
    }
    plan_path = wdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(SRC), str(plan_path), repr(spawn)],
        cwd=wdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=seconds + WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish in {seconds + WORKER_TIMEOUT_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    record.update(mode=mode, dir=wdir, stderr=err)
    return record


def verify(commands: list, timings: list, pass_dir: Path, workloads, checked: dict) -> list[dict]:
    """Check every command's report from one pass; one outcome per command.

    The oracle runs on the first report of each command.  Reports are
    canonical (no timestamp), so a later pass whose report is byte-identical
    inherits that result; a report that differs is checked again and fails
    the identity check.
    """
    outcomes = []
    for cmd, timing in zip(commands, timings):
        checks = []
        if timing["rc"] == 0:
            try:
                data = (pass_dir / cmd.out).read_bytes()
                first = checked.get(cmd.label)
                if first is not None and data == first[0]:
                    checks = list(first[1])
                else:
                    checks = cmd.check(workloads.parse_report(data))
                    checked.setdefault(cmd.label, (data, checks))
                checks = checks + [("report.same_every_pass", first is None or data == first[0], 0.0)]
            except (OSError, KeyError, TypeError, ValueError) as exc:
                checks = [(f"{cmd.subcommand}.report_readable", False, 0.0)]
                print(f"check error in {cmd.label}: {exc!r}", file=sys.stderr)
        ok = timing["rc"] == 0 and all(passed for _, passed, _ in checks)
        outcomes.append({
            "label": cmd.label,
            "subcommand": cmd.subcommand,
            "rc": timing["rc"],
            "wall_s": timing["wall_s"],
            "ok": ok,
            # a known defect excuses a failed check, never a failed command
            "excused": (not ok) and timing["rc"] == 0 and cmd.known_defect is not None,
            "checks": [{"name": n, "passed": bool(p), "value": float(v)} for n, p, v in checks],
        })
    return outcomes


def import_profile(env: dict) -> dict[str, float]:
    """Import cost of gaugeport.cli and of scipy.stats from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gaugeport.cli"],
        env=dict(env, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import profile failed: {proc.stderr.strip()[-2000:]}")
    total = scipy_stats = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        seconds = int(cumulative) * 1e-6
        if name.strip() == "scipy.stats":
            scipy_stats = max(scipy_stats, seconds)
        if name.strip().startswith("gaugeport") and not name[1:].startswith(" "):
            total += seconds  # top-level gaugeport imports (nested ones are inside)
    return {"setup.import_s": total, "setup.scipy_stats_import_s": scipy_stats}


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def command_times(passes: list[dict]) -> dict[str, dict]:
    """Per-subcommand time: the pass total (median over passes) and per call."""
    out = {}
    for sub in SUBCOMMANDS:
        totals = [sum(o["wall_s"] for o in p["outcomes"] if o["subcommand"] == sub) for p in passes]
        calls = sorted(o["wall_s"] for p in passes for o in p["outcomes"] if o["subcommand"] == sub)
        if calls:
            out[sub] = {"pass_median_s": _median(totals), "calls": len(calls),
                        "call_median_s": _median(calls), "call_max_s": calls[-1]}
    return out


def price_max_rel_err(passes: list[dict]) -> float:
    errs = [c["value"] for p in passes for o in p["outcomes"] for c in o["checks"]
            if c["name"] == "price.atm_rel_1e-3"]
    return max(errs, default=0.0)


def describe(name: str, unit: str, values: list[float], what: str) -> str:
    values = sorted(values)
    n = len(values)
    if n >= 20:
        # the highest order statistic with ten samples beyond it
        tail = f"p{100 * (n - 10) / n:.0f} {values[n - 11]:.6g}"
    else:
        tail = "no percentile above the median has ten samples beyond it"
    return (f"metric {name} = {_median(values):.6g} {unit} (median of {n} {what}, "
            f"min {values[0]:.6g}, max {values[-1]:.6g}; {tail})")


def run(args) -> int:
    if not (SRC / "gaugeport" / "cli.py").is_file():
        print(f"error: gaugeport sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: {workloads.NAMES}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        return _run(args, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workloads, work: Path) -> int:
    commands = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
    env = dict(os.environ)
    # simulate fills its path blocks on two threads; no other command reads this.
    # BLAS threads stay at their default and are recorded in the machine facts.
    env["GAUGEPORT_THREADS"] = "2"
    facts = machine_facts(env)

    # Interpreters that only import gaugeport.cli: set-up samples.  The first
    # also byte-compiles the package in a fresh checkout, which the median
    # absorbs.
    setup = [run_worker(work, env, "plain", [], 0, 0, f"setup-{i}")["setup_s"]
             for i in range(SETUP_PROBES)]
    if args.trace:
        profile = import_profile(env)
        half = args.seconds / 2
        workers = [
            run_worker(work, env, "plain", commands, half, MIN_PASSES, "plain"),
            run_worker(work, env, "spans", commands, half, MIN_PASSES, "spans"),
            run_worker(work, env, "alloc", commands, 0, 1, "alloc"),
        ]
    else:
        workers = [run_worker(work, env, "plain", commands, args.seconds, MIN_PASSES, "plain")]
    setup += [w["setup_s"] for w in workers]

    passes = []
    checked: dict = {}
    for w in workers:
        for i, p in enumerate(w["passes"]):
            p["mode"] = w["mode"]
            p["outcomes"] = verify(commands, p["commands"], w["dir"] / f"pass-{i}", workloads, checked)
            passes.append(p)
    plain = [p for p in passes if p["mode"] == "plain"]
    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o["ok"] and not o["excused"])
    ok_ratio = sum(1 for o in outcomes if o["ok"]) / attempted
    cmd_times = command_times(plain)

    if args.trace:
        traced = [p for p in passes if p["mode"] == "spans"]
        metrics = {name: _median([p["layers"][name] for p in traced]) for name in traced[0]["layers"]}
        metrics.update(next(p for p in passes if p["mode"] == "alloc")["layers"])
        metrics.update(profile)
        metrics["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                                       - _median([p["wall_s"] for p in plain]))
        metrics["pricer.atm_max_rel_err"] = price_max_rel_err(passes)
        for sub in SUBCOMMANDS:
            metrics[f"cmd.{sub}_s"] = cmd_times.get(sub, {}).get("pass_median_s", 0.0)
        shutil.copyfile(workers[1]["dir"] / "spans.json", OUT / f"spans-{args.workload}-s{args.seed}.json")
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": _median(setup),
            "wall_s": _median([p["wall_s"] for p in plain]),
            "cpu_s": _median([p["cpu_s"] for p in plain]),
            # After the first pass: later passes in the same process add
            # allocator retention (40-90 MB on mc, depending on thread timing)
            # that a process running the commands once never sees.
            "peak_rss_mb": plain[0]["peak_rss_mb"],
            "ok_ratio": ok_ratio,
        }
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")

    # ---- report -----------------------------------------------------------
    print("machine " + json.dumps(facts, sort_keys=True))
    modes = ", ".join(f"{m}={sum(p['mode'] == m for p in passes)}" for m in ("plain", "spans", "alloc"))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes ({modes}), "
          f"{len(commands)} commands per pass")
    if not args.trace:
        print(describe("setup_s", "s", setup, "fresh interpreters"))
        print(describe("wall_s", "s", [p["wall_s"] for p in plain], "passes"))
        print(describe("cpu_s", "s", [p["cpu_s"] for p in plain], "passes"))
        print(f"metric peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (process peak after its first "
              f"pass; {plain[-1]['peak_rss_mb']:.6g} MB after all {len(plain)} passes)")
        print(f"metric ok_ratio = {ok_ratio:.6g} ratio (fail_ratio {1 - ok_ratio:.6g}; "
              f"{attempted - round(ok_ratio * attempted)} of {attempted} commands failed)")
    for sub, t in cmd_times.items():
        print(f"command {sub}_s = {t['pass_median_s']:.6g} s per pass (median); per call median "
              f"{t['call_median_s']:.6g} s, max {t['call_max_s']:.6g} s over {t['calls']} calls")
    if any(o["subcommand"] == "price" for o in outcomes):
        print(f"command price_max_rel_err = {price_max_rel_err(passes):.6g} ratio "
              f"(closed form, limit {workloads.PRICE_REL_TOL:g})")
    check_runs = defaultdict(lambda: [0, 0])
    for o in outcomes:
        for c in o["checks"]:
            check_runs[c["name"]][0] += 1
            check_runs[c["name"]][1] += not c["passed"]
    for name, (runs, fails) in sorted(check_runs.items()):
        print(f"check {name}: {runs} run, {fails} failed")
    defects = sorted({(o["label"], c["value"]) for o in outcomes if o["excused"]
                      for c in o["checks"] if not c["passed"]})
    for label, value in defects:
        cmd = next(c for c in commands if c.label == label)
        print(f"known defect {label}: {value:.3g} ({cmd.known_defect})")
    for o in outcomes:
        if not o["ok"] and not o["excused"]:
            print(f"FAILED {o['label']}: rc={o['rc']} checks={o['checks']}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": facts, "metrics": metrics, "setup_s": setup,
              "commands": cmd_times, "passes": passes}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception so the worker is stopped and the work
    # directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
