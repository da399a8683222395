"""Smoke tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at minimal size, untraced and traced, and checks that
every metric in BENCHMARK.json is printed with its unit and that every
output check runs.  The suite takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

CHECKS = {
    "mc": {
        "riskfree.sizes",
        "riskfree.slope_in_range",
        "riskfree.slope_refit",
        "riskfree.etemadi_within_envelope",
        "simulate.shape",
        "simulate.terminal_mean_within_5se",
        "report.same_every_pass",
    },
    "panel_pricing": {
        "gauge.a_field_rel_1e-10",
        "gauge.portfolio_value_rel_1e-10",
        "gauge.b_diag_shape",
        "discount.final_values_rel_1e-10",
        "discount.cash_series_rel_1e-10",
        "price.atm_rel_1e-3",
        "sensitivity.sum_to_one",
        "sensitivity.within_box",
        "sensitivity.residual_recomputed",
        "sensitivity.residual_le_equal_weight",
        "sensitivity.equal_weight_residual",
        "report.same_every_pass",
    },
}
SUBCOMMANDS = {
    "mc": {"riskfree", "simulate"},
    "panel_pricing": {"gauge", "discount", "price", "sensitivity"},
}


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_runner():
    assert SPEC["workloads"] and [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *info, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in section}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    ran = {line.split()[1].rstrip(":") for line in info if line.startswith("check ")}
    assert ran == CHECKS[workload]
    assert not any(line.startswith("FAILED") for line in info)
    for sub in SUBCOMMANDS[workload]:
        assert any(line.startswith(f"command {sub}_s = ") and " s per pass" in line for line in info)
    if workload == "panel_pricing":
        assert any(line.startswith("command price_max_rel_err = ") for line in info)
        assert any(line.startswith("known defect price_call_100_0.1_0_400") for line in info)
    if trace == 0:
        for name, unit in run.END_TO_END.items():
            assert any(line.startswith(f"metric {name} = ") and f" {unit} " in line for line in info)
        assert any("fail_ratio" in line for line in info)
    else:
        assert result["metrics"]["setup.import_s"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "mc", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_covered_children():
    spans_ = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "sim.simulate", "parent": 0, "start": 1.0, "end": 9.0},
        # two overlapping children in worker threads cover [2, 7]
        {"id": 2, "name": "sim.noise_block", "parent": 1, "start": 2.0, "end": 5.0},
        {"id": 3, "name": "sim.noise_block", "parent": 1, "start": 4.0, "end": 7.0},
    ]
    assert spans.self_times(spans_) == {0: 2.0, 1: 3.0, 2: 3.0, 3: 3.0}


def test_closed_form_oracle():
    # Black-Scholes at S = K = 100, sigma = 0.2, T = 1: 7.965567 at r = 0
    assert workloads.closed_form("call", 100, 100, 0.2, 1.0, 0.0) == pytest.approx(7.965567, abs=1e-6)
    call = workloads.closed_form("call", 100, 90, 0.3, 2.0, 0.05)
    put = workloads.closed_form("put", 100, 90, 0.3, 2.0, 0.05)
    assert call - put == pytest.approx(100 - 90 * math.exp(-0.1), rel=1e-12)
