"""The benchmark's workloads: fixed request lists, expected answers from theory.

A workload is a list of `gausscub` command lines (one pass).  The client
sends them in order, each after the previous one finished.  Why each
workload exists:

- decide-catalog: `exists` on catalog measures.  Assembly-bound, with the
  parity zeros of catalog coefficients; holds the fragile symmetrized m=4
  YES case and the m=5 breakdown.
- decide-random: `exists` on moment files of random discrete measures.  The
  same assembly on dense coefficients, plus moment-file parsing, so a gain
  that only helps sparse input shows here as no gain.
- construct-yes: `cubature`, `verify`, `qcheck` on every 1-D catalog weight
  and the symmetrized measure.  Tiny systems: time goes to rule building,
  certificates and file I/O, so an assembly speed-up should leave it flat.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

ONE_D_WEIGHTS = ("lebesgue", "chebyshev1", "chebyshev2", "hermite")
SYMMETRIZED = "symmetrized:0.5"

# Failures the program is known to have.  They stay in the workloads and
# count against ok_rate; the run's `failed` count leaves them out, so it
# counts only new failures.  A known failure that starts to succeed is
# checked like any other success.
_PD = "moment matrix stops being numerically positive definite"
KNOWN_FAILURES = {
    ("exists", SYMMETRIZED, 5): _PD,
    ("cubature", "lebesgue^1", 10): _PD,
    ("verify", "lebesgue^1", 10): "no rule to verify: cubature failed",
    ("qcheck", "lebesgue^1", 10): _PD,
    ("cubature", "chebyshev1^1", 10): _PD,
    ("verify", "chebyshev1^1", 10): "no rule to verify: cubature failed",
    ("qcheck", "chebyshev1^1", 10): _PD,
    ("verify", "hermite^1", 9): "verify rejects correct rules of wide-support measures",
    ("verify", "hermite^1", 10): "verify rejects correct rules of wide-support measures",
}


@dataclass(eq=False)
class Case:
    """One measure at one level m."""

    label: str  # catalog spec, or "random-n<n>" for a moment file
    n: int
    m: int
    moments_path: str | None = None
    atoms: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def symmetrized(self) -> bool:
        return self.label == SYMMETRIZED

    def theory_exists(self) -> bool:
        """Gaussian cubature exists: always in 1-D, for the symmetrized measure,
        and never for catalog products or generic measures with n >= 2, m >= 2."""
        if self.n == 1 or self.symmetrized:
            return True
        if self.m < 2:
            raise ValueError("no theory verdict for m = 1 with n >= 2")
        return False

    def in_margin_subset(self) -> bool:
        """Well-conditioned cases whose verdict margin enters margin_dec_min."""
        if self.n == 1:
            return self.m <= 8
        return self.m <= 4 if self.symmetrized else True

    def in_construction_subset(self) -> bool:
        """Well-conditioned cases whose rule accuracy enters the accuracy metrics."""
        if self.n == 1:
            return self.m <= 8
        return self.symmetrized and self.m <= 3

    def source_args(self) -> list[str]:
        if self.moments_path is not None:
            return ["--moments", self.moments_path]
        return ["--catalog", self.label]

    def reference_measure(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms and weights carrying the measure's raw (unnormalized) moments."""
        if self.atoms is None:
            if self.symmetrized:
                self.atoms = oracle.symmetrized_atoms()
            else:
                x, w = oracle.gauss_1d(self.label.split("^")[0], oracle.MOMENT_POINTS)
                self.atoms = (x[:, None], w)
        return self.atoms

    def reference_nodes(self) -> np.ndarray:
        """Nodes of the Gaussian rule, from an independent construction."""
        if self.symmetrized:
            return oracle.symmetrized_nodes(self.m)
        if self.moments_path is not None:
            x, w = self.reference_measure()
            return oracle.lanczos_gauss(x[:, 0], w, self.m)[:, None]
        return oracle.gauss_1d(self.label.split("^")[0], self.m)[0][:, None]


@dataclass(eq=False)
class Request:
    rid: int
    command: str  # exists | cubature | verify | qcheck
    case: Case
    argv: list[str]
    rule_path: str | None = None

    @property
    def known_failure(self) -> str | None:
        return KNOWN_FAILURES.get((self.command, self.case.label, self.case.m))


def _exists(case: Case) -> list:
    return [("exists", case, ["exists", *case.source_args(), "--m", str(case.m)])]


def _construct(case: Case, seed: int, workdir: str) -> list:
    rule = os.path.join(workdir, f"rule-{case.label.replace('^', '').replace(':', '')}-m{case.m}.txt")
    common = [*case.source_args(), "--m", str(case.m), "--seed", str(seed)]
    return [
        ("cubature", case, ["cubature", *common, "--out", rule], rule),
        ("verify", case, ["verify", *case.source_args(), "--rule", rule], rule),
        ("qcheck", case, ["qcheck", *common]),
    ]


def decide_catalog(seed: int, workdir: str) -> list:
    grid = [("lebesgue^2", 4), ("chebyshev1^3", 3), ("lebesgue^3", 3), ("lebesgue^4", 2), ("lebesgue^4", 3)]
    grid += [(SYMMETRIZED, m) for m in (3, 4, 5)]
    return [r for spec, m in grid for r in _exists(Case(spec, _dim(spec), m))]


def decide_random(seed: int, workdir: str) -> list:
    """Discrete measures with 4 s_2m atoms, uniform on [-1,1]^n, positive weights.

    The moment files are written here, before any timing, in hex-float so the
    program reads exactly the moments of the atoms.
    """
    rng = np.random.default_rng(seed)
    out = []
    for n, m in [(1, 4), (1, 6), (1, 8), (2, 2), (2, 3), (2, 4), (3, 2)]:
        k = 4 * math.comb(n + 2 * m, n)
        x = rng.uniform(-1.0, 1.0, size=(k, n))
        w = rng.uniform(0.5, 1.5, size=k)
        path = os.path.join(workdir, f"moments-n{n}-m{m}.txt")
        _write_moments(path, x, w, 4 * m)
        out += _exists(Case(f"random-n{n}", n, m, moments_path=path, atoms=(x, w)))
    return out


def construct_yes(seed: int, workdir: str) -> list:
    cases = [Case(f"{w}^1", 1, m) for w in ONE_D_WEIGHTS for m in range(2, 11)]
    cases += [Case(SYMMETRIZED, 2, m) for m in (2, 3)]
    return [r for case in cases for r in _construct(case, seed, workdir)]


WORKLOADS = {
    "decide-catalog": decide_catalog,
    "decide-random": decide_random,
    "construct-yes": construct_yes,
}


def build(name: str, seed: int, workdir: str) -> list[Request]:
    """The workload's requests, in pass order."""
    return _requests(WORKLOADS[name](seed, workdir))


def construction(case: Case, seed: int, workdir: str) -> list[Request]:
    """`cubature`, `verify` and `qcheck` for one case, outside any workload."""
    return _requests(_construct(case, seed, workdir))


def _requests(specs: list) -> list[Request]:
    return [
        Request(rid, cmd, case, [*argv, "--format", "machine"], rest[0] if rest else None)
        for rid, (cmd, case, argv, *rest) in enumerate(specs)
    ]


def _dim(spec: str) -> int:
    return 2 if spec == SYMMETRIZED else int(spec.split("^")[1])


def _write_moments(path: str, x: np.ndarray, w: np.ndarray, d_max: int) -> None:
    lines = [f"n = {x.shape[1]}", f"d_max = {d_max}", "normalized = false", f"scale = {(1.0).hex()}"]
    for alpha in oracle.glex_indices(x.shape[1], d_max):
        value = float(w @ np.prod(x ** np.array(alpha), axis=1))
        lines.append(f'"{",".join(map(str, alpha))}": {value.hex()}')
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
