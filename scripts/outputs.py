#!/usr/bin/env python3
"""Every output of a fixed list of `gausscub` requests, in one JSON file.

    python3 scripts/outputs.py OUT.json

Runs in this process, through `gausscub.cli.main`:

- every request of the benchmark's three workloads: decide-catalog and
  construct-yes at seed 1, decide-random at seeds 1-10 (192 requests);
- their check-only constructions: `cubature`, `verify` and `qcheck` for each
  YES of a decide workload in the benchmark's construction subset;
- `moments --d-max 8` and `ortho --sigma` for every |sigma| <= 2, on each
  catalog spec of the workloads;
- `exists --format machine` on faulty copies of the seed-1 n = 2, m = 3
  decide-random moment file, one fault each (FAULTS), so the error of the
  record-by-record reader is compared too.

The file maps each request to [exit code, stdout, stderr, rule file], the
rule file being the text of the request's rule path after it ran (null when
there is none), with the temporary directory written as <tmp> and the keys
sorted.  So the files of two checkouts compare with `cmp`: a change that
keeps every output writes the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gausscub import cli  # noqa: E402

import workloads  # noqa: E402

SEEDS = {"decide-catalog": [1], "construct-yes": [1], "decide-random": list(range(1, 11))}
CATALOG = ["lebesgue^2", "chebyshev1^3", "lebesgue^3", "lebesgue^4", workloads.SYMMETRIZED]
CATALOG += [f"{w}^1" for w in workloads.ONE_D_WEIGHTS]


# one fault each, in the records that replace a valid file's middle record (d_max = 12)
FAULTS = {
    "drop": [],
    "duplicate": ["{index}: {value}", "{index}: {value}"],
    "short index": ["{short}: {value}"],
    "degree above d_max": ['"13,0": {value}'],
    "non-finite value": ["{index}: inf"],
    "junk value": ["{index}: 0x1.2q3"],
    "entry past int64": ['"100000000000000000000000,0": {value}'],
}


def call(argv: list[str], tmp: str, rule_path: str | None = None) -> list:
    """[exit code, stdout, stderr, rule file] of one request, with tmp written as <tmp>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    rule = Path(rule_path).read_text() if rule_path and os.path.exists(rule_path) else None
    return [code, *(None if s is None else s.replace(tmp, "<tmp>") for s in (out.getvalue(), err.getvalue(), rule))]


def workload_outputs(name: str, seed: int, tmp: str) -> dict:
    """The outputs of one pass of a workload and of its check-only constructions."""
    outputs = {}

    def run(req) -> int:
        if req.command == "cubature":
            with contextlib.suppress(FileNotFoundError):
                os.remove(req.rule_path)
        key = f"{name} seed {seed}: " + " ".join(req.argv).replace(tmp, "<tmp>")
        outputs[key] = call(req.argv, tmp, req.rule_path)
        return outputs[key][0]

    for req in workloads.build(name, seed, tmp):
        if run(req) == 0 and req.command == "exists" and req.case.in_construction_subset():
            for extra in workloads.construction(req.case, seed, tmp):
                run(extra)
    return outputs


def catalog_outputs(tmp: str) -> dict:
    """`moments --d-max 8` and every `ortho --sigma` of degree <= 2 on each catalog spec."""
    outputs = {}
    for spec in CATALOG:
        n = 2 if spec == workloads.SYMMETRIZED else int(spec.split("^")[1])
        requests = [["moments", "--d-max", "8"]]
        requests += [["ortho", "--sigma", ",".join(map(str, s)), "--format", "machine"]
                     for s in itertools.product(range(3), repeat=n) if sum(s) <= 2]
        for argv in requests:
            argv = [argv[0], "--catalog", spec, *argv[1:]]
            outputs[" ".join(argv)] = call(argv, tmp)
    return outputs


def fault_outputs(tmp: str) -> dict:
    """`exists` on copies of a valid moment file whose middle record is replaced by FAULTS' records."""
    workdir = os.path.join(tmp, "faults")
    os.makedirs(workdir)
    workloads.decide_random(1, workdir)
    lines = Path(workdir, "moments-n2-m3.txt").read_text().splitlines()
    k = (4 + len(lines)) // 2  # the middle record, after the four header lines
    index, value = lines[k].split(": ")
    outputs = {}
    for name, records in FAULTS.items():
        path = os.path.join(workdir, name.replace(" ", "-") + ".txt")
        body = [record.format(index=index, short=index.split(",")[0] + '"', value=value) for record in records]
        Path(path).write_text("\n".join(lines[:k] + body + lines[k + 1 :]) + "\n")
        argv = ["exists", "--moments", path, "--m", "3", "--format", "machine"]
        outputs[f"fault {name}: " + " ".join(argv).replace(tmp, "<tmp>")] = call(argv, tmp)
    return outputs


def dump(outputs: dict) -> str:
    return json.dumps(outputs, sort_keys=True, indent=1) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    args = ap.parse_args()
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, seeds in SEEDS.items():
            for seed in seeds:
                outputs.update(workload_outputs(name, seed, tmp))
        outputs.update(catalog_outputs(tmp))
        outputs.update(fault_outputs(tmp))
    Path(args.out).write_text(dump(outputs))
    print(f"{len(outputs)} requests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
