#!/usr/bin/env python3
"""Summarise the benchmark over several runs in one JSON file, plus a reach grid.

    python3 scripts/bench.py --out BENCH_new.json
    python3 scripts/bench.py --out BENCH_new.json --seeds 1 1 2 --compare BENCH_old.json

For every workload and seed this runs `perfbench/run.py --trace 0` in a
fresh process (run from the root of this checkout) for the benchmark's
`run_seconds`, and reads the result that run writes to perfbench/out/.  The
workloads and the run length are those of BENCHMARK.json.  The file records each run's end-to-end
metrics, their median and interquartile range per workload, and the machine.
A seed may be repeated to get several runs of the same requests.

The reach grid covers cases the workloads do not: `exists --format machine`
in one process, on growing m and n and on one stretched moment file.  Each
row holds the exit code, `relative_residual`, `noise_floor`, `t_m` and the
wall seconds of the request (the Glex tables of earlier rows stay cached).

`--compare FILE` prints, per workload and metric, the ratio of the new
median to the median in FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread, as in perfbench's worker, so the reach grid's wall seconds
    # do not depend on how many threads the library would otherwise start.  Set
    # before numpy loads, and only when run: importing this file changes nothing.
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gausscub import cli, measures  # noqa: E402
from gausscub.indexing import glex_enumerate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
STRETCHED = "symmetrized:0.5, x1 stretched by 1e3"
REACH = (
    [("symmetrized:0.5", m) for m in range(5, 11)]
    + [(w, m) for w in ("lebesgue^1", "chebyshev1^1") for m in range(10, 21)]
    + [("hermite^1", m) for m in range(9, 13)]
    + [("lebesgue^4", 4), ("lebesgue^6", 4), ("lebesgue^8", 3), ("lebesgue^10", 3), ("lebesgue^12", 3)]
    + [(STRETCHED, 3)]
)
REACH_KEYS = ("relative_residual", "noise_floor", "t_m")


def run_once(workload: str, seed: int) -> dict:
    """One `perfbench/run.py --trace 0` run of the benchmark's length: its JSON result."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((ROOT / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())


def summarise(runs: list[dict]) -> dict:
    """Median and interquartile range of each metric over the runs of one workload."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        out[name] = {"median": float(med), "iqr": float(q3 - q1), "unit": runs[0]["metrics"][name]["unit"]}
    return out


def _stretched_moments(path: str, m: int) -> None:
    y = measures.catalog_moments(measures.parse_measure_spec("symmetrized:0.5"), 2 * m)
    x1 = glex_enumerate(2, 2 * m)[:, 0]
    measures.store_moments(measures.MomentSequence(2, 2 * m, y.array * 1e3**x1, normalized=True), path)


def reach(cases=REACH) -> list[dict]:
    """`exists --format machine` on each (source, m) case, in this process."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for source, m in cases:
            if source == STRETCHED:
                path = str(Path(tmp) / f"stretched-m{m}.txt")
                _stretched_moments(path, m)
                args = ["--moments", path]
            else:
                args = ["--catalog", source]
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["exists", *args, "--m", str(m), "--format", "machine"])
            wall = time.perf_counter() - t0
            fields = dict(line.split(" = ", 1) for line in out.getvalue().splitlines())
            row = {"case": source, "m": m, "exit": code}
            row.update({k: float(fields[k]) if k in fields else None for k in REACH_KEYS})
            rows.append({**row, "wall_s": wall})
    return rows


def ratios(new: dict, old: dict) -> list[tuple[str, str, float]]:
    """(workload, metric, new median / old median) for every pair in both files."""
    rows = []
    for workload, metrics in new["summary"].items():
        for name, stat in metrics.items():
            ref = old.get("summary", {}).get(workload, {}).get(name)
            if ref is not None and ref["median"] != 0:
                rows.append((workload, name, stat["median"] / ref["median"]))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--compare", help="earlier file written by this script")
    args = ap.parse_args()

    runs, machine = {}, None
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            result = run_once(workload, seed)
            machine = machine or result["report"]["machine"]
            runs[workload].append({k: result[k] for k in ("correct", "failed", "metrics")} | {"seed": seed})
    doc = {
        "machine": machine,
        "seconds": BENCHMARK["run_seconds"],
        "summary": {w: summarise(r) for w, r in runs.items()},
        "runs": runs,
        "reach": reach(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.compare:
        for workload, name, ratio in ratios(doc, json.loads(Path(args.compare).read_text())):
            print(f"{workload:16s} {name:20s} {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
