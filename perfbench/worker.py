"""One workload in one fresh process: client, correctness gate, metrics.

Started by run.py with BLAS pinned to one thread.  The client is a closed
loop: it calls `gausscub.cli.main(argv)` in-process and sends the next
request only when the previous one has returned.  A run is:

1. a cold first pass (`first_pass_s`; with --cold-only, nothing else);
2. an untimed check: every answer against theory, every rule against an
   independent reference, and the commutation route against each verdict;
3. warm passes without tracing (`pass_s`, `request_s.tail`);
4. with --trace 1, half of the warm passes run with every layer wrapped
   instead, giving the per-layer metrics and the tracing overhead.

The last line of stdout is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gausscub  # noqa: E402
from gausscub import cli, cubature, indexing, measures, ortho  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / "perfbench" / "out"

# A run stops early once its warm passes take this many times --seconds, so
# that a much slower program still ends within the time limit.
OVERRUN = 3.0

TOL = 1e-8  # the CLI's default --tol, against which margins are measured
# An answer with the right exit code is still wrong when its rule misses
# the reference by more than the CLI's tolerance (nodes: by more than
# 1e-6), or its certificate identities fail outright.  Smaller losses show
# in the accuracy metrics, not in the gate.
MAX_EXACTNESS_ERR = 1e-8
MAX_NODE_ERR = 1e-6
MAX_CERT_DEV = 1e-2


def call(argv: list[str]) -> tuple[int | None, str, str, float]:
    """One request: exit code (None on an exception), stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # the client must survive a crashing request
            code = None
            err.write(f"{type(e).__name__}: {e}")
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_pass(requests, tracer=None) -> tuple[float, list, float]:
    """Send every request once; returns (wall seconds, results, start time)."""
    results = []
    start = time.perf_counter()
    for req in requests:
        if req.command == "cubature":
            # a rule left by an earlier pass must not be verified in place of
            # this request's rule
            with contextlib.suppress(FileNotFoundError):
                os.remove(req.rule_path)
        if tracer is not None:
            tracer.request = req.rid
        results.append(call(req.argv))
    return time.perf_counter() - start, results, start


def parse_machine(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields.setdefault(key, value)
    return fields


def classify(req, result) -> tuple[str, bool | None, dict]:
    """(status, verdict, fields): status is ok, failed or wrong.

    A request fails on an exception, exit code 20 or 30, a missing verdict or
    a failed verification.  It is wrong when a confident verdict (exit 0 or
    10) contradicts theory.
    """
    code, out, _, _ = result
    fields = parse_machine(out)
    if code not in (0, 10):
        return "failed", None, fields
    if req.command == "verify":
        return ("ok" if code == 0 and fields.get("verified") == "True" else "failed"), None, fields
    verdict = code == 0
    if fields.get("verdict") != ("exists" if verdict else "no-gaussian-cubature"):
        return "failed", None, fields
    return ("ok" if verdict == req.case.theory_exists() else "wrong"), verdict, fields


def load_rule_file(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(m, nodes, weights) from a rule file, parsed here rather than by the package."""
    header, nodes, weights = {}, [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line:
                left, _, right = line.partition(":")
                nodes.append([float.fromhex(t) for t in left.split()])
                weights.append(float.fromhex(right.strip()))
            else:
                key, _, value = line.partition("=")
                header[key.strip()] = value.strip()
    return int(header["m"]), np.array(nodes), np.array(weights)


def rule_accuracy(case, rule_path: str) -> dict:
    """Errors of a rule file against the case's reference; infinite if unreadable."""
    try:
        m, nodes, weights = load_rule_file(rule_path)
    except (OSError, ValueError, KeyError):
        return {"exactness_err": math.inf, "node_err": math.inf}
    atoms, atom_weights = case.reference_measure()
    return {
        "exactness_err": oracle.exactness_error(nodes, weights, atoms, atom_weights, 2 * m - 1),
        "node_err": oracle.node_error(nodes, case.reference_nodes()),
    }


def cert_deviation(fields: dict) -> float:
    keys = ("corollary_deviation", "remark_u_from_rule", "remark_low_degree", "remark_top_degree", "remark_mean")
    return max(abs(float(fields[k])) for k in keys)


def commutation_agrees(case, verdict: bool) -> bool:
    """Does the commutation-defect route give the least-squares verdict?"""
    try:
        if case.moments_path is not None:
            seq = measures.normalize_probability(measures.load_moments(case.moments_path))
        else:
            seq = measures.catalog_moments(measures.parse_measure_spec(case.label), 2 * case.m - 1)
        basis = ortho.build_orthobasis(seq, case.m - 1)
        ops = cubature.multiplication_operators(seq, basis, case.m)
    except (measures.NotPositiveDefiniteError, measures.MomentFormatError, ValueError):
        return False
    scale = max(1.0, max(float(np.abs(a).max()) for a in ops.matrices))
    return (cubature.commutation_defect(ops) <= TOL * scale) == verdict


def examine(req, result) -> tuple[dict, bool | None]:
    """Log entry of one answered request: status, margin, rule and certificate errors."""
    status, verdict, fields = classify(req, result)
    entry = {"request": req.rid, "command": req.command, "case": req.case.label, "m": req.case.m,
             "exit": result[0], "status": status, "known_failure": req.known_failure}
    if "relative_residual" in fields:
        rel = float(fields["relative_residual"])
        entry["relative_residual"] = rel
        entry["margin_dec"] = abs(math.log10(max(rel, oracle.EPS) / TOL))
    if status == "ok" and req.command == "cubature":
        entry.update(rule_accuracy(req.case, req.rule_path))
    if status == "ok" and req.command == "qcheck":
        entry["cert_dev"] = cert_deviation(fields)
    return entry, verdict


def check(workload: str, requests, results, seed: int, workdir: str) -> dict:
    """The untimed check of the first pass: accuracy per case and route agreement.

    A YES of a decide workload in the construction subset is backed here by
    a rule and a certificate.  Returns the per-case log as (case, entry)
    pairs, the entries that make the run incorrect, and one route-agreement
    flag per decided case.
    """
    log, routes = [], {}
    for req, result in zip(requests, results):
        entry, verdict = examine(req, result)
        log.append((req.case, entry))
        if entry["status"] == "ok" and verdict is not None and req.case not in routes:
            routes[req.case] = commutation_agrees(req.case, verdict)
        if workload != "construct-yes" and entry["status"] == "ok" and verdict and req.case.in_construction_subset():
            for extra in workloads.construction(req.case, seed, workdir):
                if extra.command != "verify":
                    log.append((req.case, {**examine(extra, call(extra.argv))[0], "request": None, "check_only": True}))
    bad = [
        e for _, e in log
        if e["status"] == "wrong" or (e.get("check_only") and e["status"] != "ok")
        or e.get("exactness_err", 0.0) > MAX_EXACTNESS_ERR or e.get("node_err", 0.0) > MAX_NODE_ERR
        or e.get("cert_dev", 0.0) > MAX_CERT_DEV
    ]
    return {"log": log, "bad": bad, "routes": list(routes.values())}


def accuracy_metrics(log: list) -> dict:
    """Worst accuracy, in decades, over the well-conditioned subset."""
    margin = [e["margin_dec"] for c, e in log if "margin_dec" in e and c.in_margin_subset()]
    built = [e for c, e in log if e["status"] == "ok" and c.in_construction_subset()]
    worst = {key: max((e[key] for e in built if key in e), default=math.inf)
             for key in ("exactness_err", "node_err", "cert_dev")}
    return {
        "margin_dec_min": min(margin, default=0.0),
        "exactness_digits": oracle.decades(worst["exactness_err"]),
        "node_digits": oracle.decades(worst["node_err"]),
        "cert_digits": oracle.decades(worst["cert_dev"]),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count): the highest percentile with at least
    ten samples above it; the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def warm_passes(requests, count: int, budget_s: float, tracer=None):
    passes = []
    start = time.perf_counter()
    while len(passes) < count and (time.perf_counter() - start < OVERRUN * budget_s or len(passes) < 1):
        passes.append(run_pass(requests, tracer))
        if tracer is not None:
            passes[-1] = (*passes[-1], *tracer.take())
    return passes


def layer_metrics(traced: list, untraced_pass_s: float) -> dict:
    """Per-layer metrics: the median over traced passes of each per-pass value."""
    per_pass = []
    for wall, _, start, spans, counters in traced:
        a = tracing.analyse(spans)
        fn, calls = a["fn_time"], a["calls"]
        assemble_total = a["fn_total"].get("existence.assemble_system", 0.0)
        entries = counters.get("entries", 0.0)
        values = {
            "existence.assemble_s": fn.get("existence.assemble_system", 0.0),
            "existence.solve_s": fn.get("existence.solve_existence", 0.0),
            "existence.assemble_calls": calls.get("existence.assemble_system", 0),
            "existence.entries": entries,
            "existence.entries_per_s": entries / assemble_total if assemble_total else 0.0,
            "ortho.triple_product_calls": calls.get("ortho.triple_product", 0),
            "ortho.triple_product_s": fn.get("ortho.triple_product", 0.0),
            "ortho.basis_s": fn.get("ortho.build_orthobasis", 0.0),
            "measures.moment_matrix_s": fn.get("measures.moment_matrix", 0.0),
            "measures.cholesky_s": fn.get("measures.psd_cholesky", 0.0),
            "measures.min_pivot": counters.get("min_pivot", 0.0),
            "measures.catalog_s": fn.get("measures.catalog_moments", 0.0),
            "measures.load_s": fn.get("measures.load_moments", 0.0),
            "measures.load_bytes": counters.get("load_bytes", 0.0),
            "cubature.operators_s": fn.get("cubature.multiplication_operators", 0.0),
            "cubature.nodes_s": fn.get("cubature.extract_nodes", 0.0),
            "cubature.weights_s": fn.get("cubature.compute_weights", 0.0),
            "cubature.exactness_s": fn.get("cubature.verify_exactness", 0.0),
            "cubature.completion_s": fn.get("cubature.complete_moments", 0.0) + fn.get("cubature.flatness_check", 0.0),
            "cubature.rule_io_s": fn.get("cubature.store_rule", 0.0) + fn.get("cubature.load_rule", 0.0),
            "qcheck.corollary_s": fn.get("qcheck.verify_corollary", 0.0),
            "qcheck.remark_s": fn.get("qcheck.verify_remark", 0.0),
            "cli.calls": calls.get("cli.main", 0),
            "trace.spans": a["spans"],
            "trace.unattributed_share": (wall - a["root_time"]) / wall,
        }
        for layer in tracing.LAYERS:
            values[f"{layer}.self_s"] = a["layer_self"].get(layer, 0.0)
        values["trace.pass_s"] = wall
        per_pass.append(values)
    merged = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    merged["trace.overhead_ratio"] = merged.pop("trace.pass_s") / untraced_pass_s
    return merged


def hooks() -> dict:
    def entries(args, result, counters):
        counters["entries"] += result.A2m.size

    def pivot(args, result, counters):
        a = np.asarray(getattr(args[0], "array", args[0]))
        # the equilibrated pivots are L_jj^2 / A_jj for the returned factor L
        smallest = float((np.diag(result) ** 2 / np.diag(a)).min())
        counters["min_pivot"] = min(counters.get("min_pivot", math.inf), smallest)

    def loaded(args, result, counters):
        counters["load_bytes"] += os.path.getsize(args[0])

    return {"existence.assemble_system": entries, "measures.psd_cholesky": pivot, "measures.load_moments": loaded}


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python_threads": threading.active_count(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int, required=True, help="warm passes")
    ap.add_argument("--cold-only", action="store_true", help="run the first pass only and print its time")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if Path(gausscub.__file__).resolve().parent != ROOT / "src" / "gausscub":
        print(f"gausscub imported from {gausscub.__file__}, not from this checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    requests = workloads.build(args.workload, args.seed, workdir)
    glex = indexing.glex_enumerate.cache_info()
    first_wall, first_results, _ = run_pass(requests)
    glex_after = indexing.glex_enumerate.cache_info()
    if args.cold_only:
        print(json.dumps({"first_pass_s": first_wall}))
        return 0
    checked = check(args.workload, requests, first_results, args.seed, workdir)

    untraced_count = args.passes if not args.trace else math.ceil(args.passes / 2)
    warm = warm_passes(requests, untraced_count, args.seconds)
    traced = []
    if args.trace:
        with tracing.Tracer(hooks()) as tracer:
            traced = warm_passes(requests, math.ceil(args.passes / 2), args.seconds, tracer)
        tracing.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
                          [(p[2], p[3]) for p in traced])

    statuses = [classify(req, res)[:2] for _, results, *_ in [(first_wall, first_results), *warm, *traced]
                for req, res in zip(requests, results)]
    known = {req.rid for req in requests if req.known_failure}
    rids = [req.rid for req in requests] * (1 + len(warm) + len(traced))
    attempted = len(statuses)
    ok = sum(s == "ok" for s, _ in statuses)
    new_failures = sum(s != "ok" and rid not in known for (s, _), rid in zip(statuses, rids))
    confident = [s for s, v in statuses if v is not None]
    correct = not checked["bad"] and all(s != "wrong" for s, _ in statuses)

    pass_s = statistics.median(w for w, *_ in warm)
    latencies = [r[3] for _, results, *_ in warm for r in results]
    tail_s, tail_pct, tail_n = tail(latencies)
    metrics = {
        "pass_s": pass_s,
        "request_s.tail": tail_s,
        "ok_rate": ok / attempted,
        "verdict_right_rate": sum(s == "ok" for s in confident) / max(1, len(confident)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **accuracy_metrics(checked["log"]),
    }
    if args.trace:
        layers = layer_metrics(traced, pass_s)
        lookups = (glex_after.hits - glex.hits) + (glex_after.misses - glex.misses)
        layers["indexing.glex_hit_ratio"] = (glex_after.hits - glex.hits) / lookups if lookups else 0.0
        layers["indexing.glex_calls"] = lookups
        layers["cubature.routes_agree"] = sum(checked["routes"]) / len(checked["routes"])
        layers["cubature.routes_cases"] = len(checked["routes"])
        metrics = layers

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "requests_per_pass": len(requests),
        "passes": {"first": 1, "warm": len(warm), "traced": len(traced)},
        "first_pass_s": first_wall,
        "request_s.tail": {"percentile": tail_pct, "samples": tail_n},
        "ok": ok,
        "known_failures": {f"{r.command} {r.case.label} m={r.case.m}": r.known_failure
                           for r in requests if r.known_failure},
        "wrong_verdicts": sum(s == "wrong" for s, _ in statuses),
        "bad_outputs": checked["bad"],
        "cases": [e for _, e in checked["log"]],
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": new_failures,
                      "metrics": metrics,
                      "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
