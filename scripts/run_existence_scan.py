#!/usr/bin/env python3
"""Scan the measure catalog for Gaussian cubature existence.

For each (measure, m) pair this prints the relative Hankel defect of the
existence test, the commutation defect of the multiplication operators, and
whether the two criteria agree, then builds the rule of each YES at the same
--tol that `cubature` uses.  Each level m reads moments to degree 2m only.
A numerical breakdown (a moment matrix that is not positive definite, a NO
defect within the noise floor, or a rule that cannot be built after a YES or
fails acceptance) is printed as a `numerical failure` row for that pair, and
the scan goes on.
"""

import argparse

import numpy as np

from gausscub.cubature import (
    DegenerateSpectrumError,
    build_rule,
    commutation_defect,
    multiplication_operators,
)
from gausscub.existence import NoiseFloorError, decide
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
    header = f"{'measure':>16} {'m':>2} {'rel.residual':>12} {'defect':>10}  verdict"
    print(header)
    print("-" * len(header))
    for text in measures:
        spec = parse_measure_spec(text)
        for m in range(1, m_max + 1):
            y = catalog_moments(spec, 2 * m)
            row = f"{text:>16} {m:>2}"
            try:
                verdict = decide(y, m, tol)
                basis = build_orthobasis(y, m)
                ops = multiplication_operators(y, basis, m)
                defect = commutation_defect(ops)
                scale = max(1.0, max(np.abs(mat).max() for mat in ops.matrices))
                tag = "YES" if verdict.exists else "no"
                if verdict.exists != (defect <= tol * scale):
                    tag += "  (ORACLES DISAGREE)"
                print(f"{row} {verdict.relative_residual:>12.3e} {defect:>10.2e}  {tag}")
                if verdict.exists:
                    rule = build_rule(y, m, tol=tol)
                    print(
                        f"{'':>16}    -> {rule.nodes.shape[0]} nodes,"
                        f" exactness error {rule.report.max_error:.2e},"
                        f" min weight {rule.report.min_weight:.3e}"
                    )
            except (NotPositiveDefiniteError, NoiseFloorError, DegenerateSpectrumError) as e:
                print(f"{row} {'':>12} {'':>10}  numerical failure ({e})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=3)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--measures", nargs="*", default=DEFAULT_MEASURES)
    args = ap.parse_args()
    scan(args.measures, args.m_max, args.tol)


if __name__ == "__main__":
    main()
