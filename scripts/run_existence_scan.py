#!/usr/bin/env python3
"""Scan the measure catalog for Gaussian cubature existence.

For each (measure, m) pair this prints the system dimensions, the relative
least-squares residual, the commutation defect of the multiplication
operators, and whether the two criteria agree.  Each level m reads moments
to degree 2m only.  A numerical breakdown (the moment matrix losing positive
definiteness, a NO residual within the noise floor, or a degenerate joint
spectrum) is printed as a `numerical failure` row and the scan goes on.
"""

import argparse

import numpy as np

from gausscub.cubature import (
    DegenerateSpectrumError,
    build_rule,
    commutation_defect,
    multiplication_operators,
)
from gausscub.existence import NoiseFloorError, assemble_system, solve_existence
from gausscub.measures import NotPositiveDefiniteError, catalog_moments, parse_measure_spec
from gausscub.ortho import build_orthobasis

DEFAULT_MEASURES = [
    "lebesgue^1",
    "chebyshev1^1",
    "chebyshev2^1",
    "hermite^1",
    "lebesgue^2",
    "chebyshev1^2",
    "chebyshev2^2",
    "lebesgue^3",
    "symmetrized:0.5",
]


def scan(measures, m_max, tol):
    header = f"{'measure':>16} {'m':>2} {'system':>8} {'rel.residual':>12} {'defect':>10}  verdict"
    print(header)
    print("-" * len(header))
    for text in measures:
        spec = parse_measure_spec(text)
        for m in range(1, m_max + 1):
            y = catalog_moments(spec, 2 * m)
            try:
                basis = build_orthobasis(y, m)
                system = assemble_system(y, basis, m)
                verdict = solve_existence(system, tol)
            except (NotPositiveDefiniteError, NoiseFloorError) as e:
                print(f"{text:>16} {m:>2} {'':>8} {'':>12} {'':>10}  numerical failure ({e})")
                continue
            ops = multiplication_operators(y, basis, m)
            defect = commutation_defect(ops)
            scale = max(1.0, max(np.abs(mat).max() for mat in ops.matrices))
            agree = verdict.exists == (defect <= tol * scale)
            tag = "YES" if verdict.exists else "no"
            if not agree:
                tag += "  (ORACLES DISAGREE)"
            shape = f"{system.shape[0]}x{system.shape[1]}"
            print(
                f"{text:>16} {m:>2} {shape:>8} {verdict.relative_residual:>12.3e}"
                f" {defect:>10.2e}  {tag}"
            )
            if verdict.exists:
                try:
                    rule = build_rule(y, basis, m)
                except DegenerateSpectrumError as e:
                    print(f"{'':>16}    -> numerical failure ({e})")
                    continue
                print(
                    f"{'':>16}    -> {rule.nodes.shape[0]} nodes,"
                    f" exactness error {rule.report.max_error:.2e},"
                    f" min weight {rule.report.min_weight:.3e}"
                )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=3)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--measures", nargs="*", default=DEFAULT_MEASURES)
    args = ap.parse_args()
    scan(args.measures, args.m_max, args.tol)


if __name__ == "__main__":
    main()
