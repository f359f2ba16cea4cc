#!/usr/bin/env python3
"""gausscub benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload decide-catalog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the benchmark imports `gausscub`
from `src/` and nothing else.  It

1. times `import gausscub.cli` in fresh interpreters (`setup_s`, the median
   of several) and one cold pass of the workload in each of a few fresh
   worker processes (`first_pass_s`, the median with the main worker's);
2. starts the main worker process (perfbench/worker.py) with BLAS pinned to
   one thread, which runs the workload's passes from a closed-loop client,
   checks every answer against theory and every rule against an independent
   reference, and with --trace 1 attributes pass time to the modules;
3. prints a readable report, writes it to perfbench/out/, and prints as the
   last line {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.

`failed` counts failed requests that are not on the list of known failures
in workloads.py; `ok_rate` counts every failure.  The workloads and the
reasons for them are in workloads.py; BENCHMARK.json lists the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide-catalog", "decide-random", "construct-yes")
SETUP_PROBES = 6
# Warm passes per run follow from --seconds and each workload's pass time at
# the first baseline, and stay fixed: every run of a workload sends the same
# requests, and its tail percentile is taken over the same number of samples.
NOMINAL_PASS_S = {"decide-catalog": 5.5, "decide-random": 1.0, "construct-yes": 0.9}
MIN_PASSES = 3
# Cold first passes, each in a fresh process, add up to about this long
# (at least two).
COLD_S = 4.0
# One worker, one thread: the numbers do not depend on how many cores the
# BLAS library would otherwise grab.
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0

_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gausscub.cli; print(repr(time.perf_counter() - t))"
)


def setup_time(env: dict) -> float:
    """Seconds to import gausscub.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def worker(args: list[str], env: dict, started: float) -> dict:
    """Run perfbench/worker.py in a fresh process and return its JSON result."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=TIME_LIMIT_S - (time.monotonic() - started), check=False,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gausscub" / "cli.py").is_file():
        print(f"no gausscub sources under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = {**os.environ, **ENV}
    env.pop("PYTHONPATH", None)
    nominal = NOMINAL_PASS_S[args.workload]
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--passes", str(max(MIN_PASSES, round(args.seconds / nominal))), "--trace", str(args.trace)]
    setup, cold = [], []

    def probes(count_setup: int, count_cold: int) -> None:
        setup.extend(setup_time(env) for _ in range(count_setup))
        cold.extend(worker(worker_args + ["--cold-only"], env, started)["first_pass_s"] for _ in range(count_cold))

    # Half of the probes run before the main worker and half after it, so
    # their medians sample the same stretch of time as the warm passes.
    extra_cold = max(2, round(COLD_S / nominal)) - 1
    if not args.trace:
        probes(SETUP_PROBES // 2, extra_cold // 2)
    result = worker(worker_args, env, started)
    if not args.trace:
        probes(SETUP_PROBES - SETUP_PROBES // 2, extra_cold - extra_cold // 2)
    report = result.pop("report")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    cold.append(report["first_pass_s"])
    report.update(setup_probes_s=setup, first_passes_s=cold)
    values = result["metrics"]
    if not args.trace:
        values.update(setup_s=statistics.median(setup), first_pass_s=statistics.median(cold))
    if set(values) != {m["name"] for m in spec}:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in spec})}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({**result, "report": report}, indent=1) + "\n")
    print_report(result, report)
    print(json.dumps(result))
    return 0


def print_report(result: dict, report: dict) -> None:
    machine = report["machine"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print("machine " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"passes {report['passes']}  requests/pass {report['requests_per_pass']}  "
          f"attempted {result['attempted']}  ok {report['ok']}  new failures {result['failed']}  "
          f"wrong verdicts {report['wrong_verdicts']}  correct {result['correct']}")
    tail = report["request_s.tail"]
    print(f"request_s.tail is the p{tail['percentile']:.2f} of {tail['samples']} request latencies")
    for entry in report["cases"]:
        if entry["status"] != "ok" or entry.get("check_only"):
            print("case " + json.dumps(entry))
    for entry in report["bad_outputs"]:
        print("BAD " + json.dumps(entry))
    for metric, v in result["metrics"].items():
        print(f"{metric:32s} {v['value']:.6g} {v['unit']}")


if __name__ == "__main__":
    sys.exit(main())
