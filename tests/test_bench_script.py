import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_leaves_the_environment_alone():
    before = dict(os.environ)
    spec = importlib.util.spec_from_file_location("bench_fresh", SCRIPT)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert dict(os.environ) == before


def test_workloads_and_run_length_are_the_benchmarks(bench):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench.WORKLOADS == [w["name"] for w in benchmark["workloads"]]
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out", os.devnull, "--seconds", "5"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "--seconds" in proc.stderr


def test_summary_is_median_and_iqr(bench):
    runs = [{"metrics": {"pass_s": {"value": v, "unit": "s"}}} for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    assert bench.summarise(runs) == {"pass_s": {"median": 3.0, "iqr": 2.0, "unit": "s"}}


def test_compare_ratios_of_medians(bench):
    new = {"summary": {"w": {"pass_s": {"median": 3.0}, "ok_rate": {"median": 1.0}}}}
    old = {"summary": {"w": {"pass_s": {"median": 2.0}}}}
    assert bench.ratios(new, old) == [("w", "pass_s", 1.5)]


def test_reach_rows(bench):
    rows = bench.reach([("lebesgue^2", 2), ("lebesgue^10", 3), (bench.STRETCHED, 3)])
    assert [r["exit"] for r in rows] == [10, 10, 0]
    assert rows[1]["t_m"] == 24310
    assert rows[2]["relative_residual"] <= 1e-8
    assert all(r["wall_s"] > 0 and r["noise_floor"] is not None for r in rows)
