"""Span recorder for the traced benchmark passes.

Wraps the public functions of the gaugeport layers from outside the package
and records one span per call: name, start, end, parent span and thread id.
Spans stay in memory; the worker writes them out when the pass ends.  The
per-layer metrics are computed from the spans by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
import tracemalloc
from collections import defaultdict

#: Layers that do measurable work in some workload.  grid, gauge and catalog
#: are wrapped for span coverage only and get no layer metrics.
LAYERS = ("io", "sim", "riskfree", "discounting", "pricer", "cli")
SPAN_ONLY = ("catalog",)


def _noise_info(params, result):
    return {"draws": int(result.size)}


def _cells_info(params, result):
    return {"cells": int(result.size)}


def _simulate_info(params, result):
    return {"bytes_out": int(result.paths.nbytes)}


def _ingest_info(params, result):
    return {"cells": int(result.prices.size), "bytes_in": os.path.getsize(params["path"])}


def _report_info(params, result):
    return {"bytes_out": os.path.getsize(params["path"])}


def _solve_info(params, result):
    return {"node_steps": int(result.s_grid.size * result.t_grid.steps)}


def _sensitivity_info(params, result):
    return {"exact": int(bool(result.exact))}


def _study_info(params, result):
    return {
        "path_steps": int(params["n_paths"]) * int(params["grid"].steps),
        "max_size": int(max(result.sizes)),
    }


#: Counts taken at the span boundary from the call's arguments and result.
INFO = {
    "sim.noise_block": _noise_info,
    "sim.ProcessSpec.drift_matrix": _cells_info,
    "sim.ProcessSpec.vol_matrix": _cells_info,
    "sim.simulate": _simulate_info,
    "io.ingest": _ingest_info,
    "io.write_report": _report_info,
    "pricer.solve_gauge_bs": _solve_info,
    "riskfree.sensitivity_neutral_weights": _sensitivity_info,
    "riskfree.convergence_study": _study_info,
}


class Tracer:
    """Records spans for wrapped calls; with ``alloc`` also tracemalloc peaks."""

    def __init__(self, alloc: bool = False):
        self.spans: list[dict] = []
        self.alloc = alloc
        self._stacks: dict[int, list[dict]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[dict]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and threading.get_ident() != self._main:
            # worker-pool threads inherit the span that is blocking the main thread
            main = self._stacks.get(self._main) or []
            parent = main[-1] if main else None
        if self.alloc:
            self._fold_peak()
        span = {
            "name": name,
            "parent": parent["id"] if parent else None,
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
        }
        if self.alloc:
            span["mem0"] = tracemalloc.get_traced_memory()[0]
            span["peak"] = span["mem0"]
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self.alloc:
            self._fold_peak()
        self._stack().pop()

    def _fold_peak(self) -> None:
        # Each open span keeps the highest peak seen while it was open; the
        # global peak is reset at every boundary so nested spans see theirs.
        peak = tracemalloc.get_traced_memory()[1]
        for stack in list(self._stacks.values()):
            for span in list(stack):
                span["peak"] = max(span["peak"], peak)
        tracemalloc.reset_peak()

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, name: str):
        info = INFO.get(name)
        signature = inspect.signature(fn) if info is not None else None
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                params = signature.bind(*args, **kwargs).arguments
                span.update(info(params, result))
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        # One span per next(): the generator body runs only while it is resumed.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span["chunks"] = 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layers, at every binding that resolves it."""
        modules = {m: importlib.import_module(f"gaugeport.{m}") for m in LAYERS + SPAN_ONLY}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self.wrap(obj, f"{short}.{attr}")
        for attr in ("drift_matrix", "vol_matrix"):
            spec = modules["sim"].ProcessSpec
            setattr(spec, attr, self.wrap(getattr(spec, attr), f"sim.ProcessSpec.{attr}"))
        # Rebind in every module namespace (from-imports included) and in the
        # CLI dispatch table, which holds the command functions by value.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        commands = modules["cli"]._COMMANDS
        for key, fn in commands.items():
            commands[key] = wrapped.get(fn, fn)
        if self.alloc:
            tracemalloc.start()


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inner = [(max(lo, s["start"]), min(hi, s["end"])) for lo, hi in children[s["id"]]]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([iv for iv in inner if iv[1] > iv[0]])
    return out


def _ancestor(spans_by_id: dict, span: dict, name: str):
    parent = span["parent"]
    while parent is not None:
        p = spans_by_id[parent]
        if p["name"] == name:
            return p
        parent = p["parent"]
    return None


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate one traced pass into the benchmark's per-layer metrics."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["busy_s"] += s["end"] - s["start"]
        a["self_s"] += selfs[s["id"]]
        for key in ("draws", "cells", "bytes_in", "bytes_out", "node_steps", "exact", "chunks"):
            a[key] += s.get(key, 0)

    def get(name, key):
        return float(agg[name][key]) if name in agg else 0.0

    def rate(num, den, scale=1.0):
        return num / den * scale if den > 0 else 0.0

    m: dict[str, float] = {}
    for key in ("calls", "busy_s", "draws"):
        m[f"sim.noise_block.{key}"] = get("sim.noise_block", key)
    m["sim.noise_block.mdraws_per_s"] = rate(m["sim.noise_block.draws"], m["sim.noise_block.busy_s"], 1e-6)
    for key in ("busy_s", "self_s", "chunks"):
        m[f"sim.iter_step_ratio_chunks.{key}"] = get("sim.iter_step_ratio_chunks", key)

    # Draw accounting for the risk-free studies: draws per simulated
    # path-step under each study, and the share of all draws a single
    # nested universe of the largest size would need.
    study_draws = defaultdict(float)
    for s in spans:
        if s["name"] == "sim.noise_block":
            for study in ("riskfree.convergence_study", "riskfree.etemadi_check"):
                if _ancestor(by_id, s, study) is not None:
                    study_draws[study] += s["draws"]
    studies = [s for s in spans if s["name"] == "riskfree.convergence_study"]
    path_steps = sum(s["path_steps"] for s in studies)
    needed = sum(s["path_steps"] * s["max_size"] for s in studies)
    for key in ("busy_s", "self_s"):
        m[f"riskfree.convergence_study.{key}"] = get("riskfree.convergence_study", key)
    m["riskfree.convergence_study.draws_per_path_step"] = rate(
        study_draws["riskfree.convergence_study"], path_steps
    )
    for key in ("busy_s", "self_s"):
        m[f"riskfree.etemadi_check.{key}"] = get("riskfree.etemadi_check", key)
    m["riskfree.draw_use_ratio"] = rate(needed, sum(study_draws.values()))

    m["sim.ProcessSpec.drift_matrix.busy_s"] = get("sim.ProcessSpec.drift_matrix", "busy_s")
    m["sim.ProcessSpec.vol_matrix.busy_s"] = get("sim.ProcessSpec.vol_matrix", "busy_s")
    m["sim.process_cells"] = get("sim.ProcessSpec.drift_matrix", "cells") + get(
        "sim.ProcessSpec.vol_matrix", "cells"
    )
    for key in ("busy_s", "self_s", "bytes_out"):
        m[f"sim.simulate.{key}"] = get("sim.simulate", key)

    for key in ("calls", "busy_s", "cells"):
        m[f"io.ingest.{key}"] = get("io.ingest", key)
    m["io.ingest.mb_per_s"] = rate(get("io.ingest", "bytes_in"), m["io.ingest.busy_s"], 1e-6)
    for key in ("calls", "busy_s"):
        m[f"riskfree.extract_market_gauge.{key}"] = get("riskfree.extract_market_gauge", key)
        m[f"riskfree.rebalanced_quantities.{key}"] = get("riskfree.rebalanced_quantities", key)
    for key in ("busy_s", "self_s"):
        m[f"discounting.empirical_pipeline.{key}"] = get("discounting.empirical_pipeline", key)
    m["discounting.cash_value_series.busy_s"] = get("discounting.cash_value_series", "busy_s")
    m["discounting.rolling_drift_vol.busy_s"] = get("discounting.rolling_drift_vol", "busy_s")
    for key in ("calls", "busy_s", "bytes_out"):
        m[f"io.write_report.{key}"] = get("io.write_report", key)
    m["io.write_report.mb_per_s"] = rate(m["io.write_report.bytes_out"], m["io.write_report.busy_s"], 1e-6)

    m["pricer.vanilla_problem.busy_s"] = get("pricer.vanilla_problem", "busy_s")
    for key in ("calls", "busy_s", "node_steps"):
        m[f"pricer.solve_gauge_bs.{key}"] = get("pricer.solve_gauge_bs", key)
    m["pricer.solve_gauge_bs.ns_per_node_step"] = rate(
        m["pricer.solve_gauge_bs.busy_s"], m["pricer.solve_gauge_bs.node_steps"], 1e9
    )
    sens = "riskfree.sensitivity_neutral_weights"
    m[f"{sens}.calls"] = get(sens, "calls")
    m[f"{sens}.busy_s"] = get(sens, "busy_s")
    m[f"{sens}.exact_ratio"] = rate(get(sens, "exact"), get(sens, "calls"))
    m["riskfree.projected_gradient.busy_s"] = get("riskfree.projected_gradient", "busy_s")
    proj = "riskfree.project_capped_simplex"
    m[f"{proj}.calls"] = get(proj, "calls")
    m[f"{proj}.busy_s"] = get(proj, "busy_s")
    m[f"{proj}.us_per_call"] = rate(m[f"{proj}.busy_s"], m[f"{proj}.calls"], 1e6)
    m["io.load_config.busy_s"] = get("io.load_config", "busy_s")

    # Command time that no wrapped layer call covers, and its share of the
    # command time; every other span's self time is attributed to a layer.
    cli_self = sum(selfs[s["id"]] for s in spans if s["name"].startswith("cli."))
    command_time = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    m["cli.self_s"] = cli_self
    m["cli.self_share"] = rate(cli_self, command_time)
    return m


def peak_alloc_metrics(spans: list[dict]) -> dict[str, float]:
    """Largest tracemalloc peak above the span's starting allocation, in MB."""
    out = {}
    for name in ("sim.simulate", "io.ingest", "riskfree.extract_market_gauge"):
        peaks = [s["peak"] - s["mem0"] for s in spans if s["name"] == name]
        out[f"{name}.peak_alloc_mb"] = max(peaks, default=0) / 1e6
    return out
