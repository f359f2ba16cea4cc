"""Rule construction: node extraction, weights, checks.

The existence test, and with it the flat-extension route, is
`existence.decide`.  Here coordinate multiplication is compressed to the
degree-(m-1) orthonormal basis; pairwise commutation of the n operators is
the classical existence criterion, and their joint eigenvalues, read off a
fixed combination, are the nodes: a rule depends on the moments, m and tol
alone.  `rejection` is the one acceptance rule for a rule, built or read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .indexing import dim_total, glex_enumerate, pair_ranks
from .measures import MomentFormatError, MomentSequence, format_text, parse_value, read_text
from .ortho import OrthoBasis, build_orthobasis, eval_monomials, eval_P

PHI = (1 + 5**0.5) / 2
MAX_DRAWS = 5  # operator combinations tried before a collision is final


class DegenerateSpectrumError(Exception):
    """No rule could be extracted: the operators do not commute, the joint
    spectrum kept colliding, the weights are singular, or the built rule
    fails acceptance (`rejection`), positivity of the weights included."""


@dataclass(frozen=True, eq=False)
class MultiplicationOperators:
    """Coordinate multiplication compressed to the degree-(m-1) basis."""

    n: int
    m: int
    matrices: tuple[np.ndarray, ...] = field(repr=False)  # each s_{m-1} x s_{m-1}


@dataclass(frozen=True)
class ExactnessReport:
    max_error: float  # worst monomial error, relative (see verify_exactness)
    node_residual: float
    min_weight: float
    inside_support: bool | None  # None when no box support is declared


@dataclass(frozen=True, eq=False)
class CubatureRule:
    n: int
    m: int
    nodes: np.ndarray = field(repr=False)  # (s_{m-1}, n)
    weights: np.ndarray = field(repr=False)  # rescaled by the measure mass
    scale: float
    report: ExactnessReport | None = None

    @property
    def precision(self) -> int:
        return 2 * self.m - 1


def multiplication_operators(y: MomentSequence, basis: OrthoBasis, m: int) -> MultiplicationOperators:
    """N_i[beta, alpha] = L_y(x_i P_alpha P_beta) over degrees <= m-1.

    Only moments to degree 2m-1 enter; the operators are symmetric because
    coordinate multiplication is self-adjoint for the measure.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if basis.d < m - 1:
        raise ValueError(f"basis built to degree {basis.d}, need {m - 1}")
    s1 = dim_total(y.n, m - 1)
    moments = y.vector(2 * m - 1)
    s = basis.coeffs[:s1, :s1]
    mats = []
    for i in range(y.n):
        ni = s @ moments[pair_ranks(y.n, m - 1, i)] @ s.T
        mats.append(0.5 * (ni + ni.T))
    return MultiplicationOperators(y.n, m, tuple(mats))


def commutation_defect(ops: MultiplicationOperators) -> float:
    """Max entry of any pairwise commutator; 0 means the criterion holds."""
    defect = 0.0
    for i in range(ops.n):
        for j in range(i + 1, ops.n):
            c = ops.matrices[i] @ ops.matrices[j] - ops.matrices[j] @ ops.matrices[i]
            defect = max(defect, float(np.abs(c).max()))
    return defect


def _operator_scale(ops: MultiplicationOperators) -> float:
    return max(1.0, max(float(np.abs(mat).max()) for mat in ops.matrices))


def extract_nodes(ops: MultiplicationOperators, tol: float = 1e-8) -> np.ndarray:
    """Joint eigenvalues of the commuting operators, one node per eigenvector.

    Diagonalizes the Weyl combination c_i = frac(1 + i phi k) + 1/2, normalized,
    for k = 1..MAX_DRAWS; a clustered spectrum moves on to the next k.  In 1-D
    every combination is the operator itself, so one try is final.  Nodes are
    sorted lexicographically.
    """
    defect = commutation_defect(ops)
    if defect > tol * _operator_scale(ops):
        raise DegenerateSpectrumError(f"operators do not commute (defect {defect:.3e})")
    size = ops.matrices[0].shape[0]
    draws = 1 if ops.n == 1 else MAX_DRAWS
    for k in range(1, draws + 1):
        c = np.modf(1 + np.arange(ops.n) * PHI * k)[0] + 0.5
        c /= c.sum()
        a = sum(ci * ni for ci, ni in zip(c, ops.matrices))
        evals, vecs = np.linalg.eigh(a)
        spread = max(1.0, float(evals.max() - evals.min()))
        if size > 1 and np.diff(evals).min() < 1e-7 * spread:
            continue
        # Rayleigh quotient of each eigenvector under each operator
        nodes = np.stack([np.sum(vecs * (ni @ vecs), axis=0) for ni in ops.matrices], axis=1)
        order = np.lexsort(tuple(nodes[:, i] for i in range(ops.n - 1, -1, -1)))
        return nodes[order]
    raise DegenerateSpectrumError(f"eigenvalue collision persisted across {draws} operator combinations")


def compute_weights(y: MomentSequence, basis: OrthoBasis, nodes: np.ndarray) -> np.ndarray:
    """Solve the square interpolation system for the weights, rescale by mass.

    In the orthonormal basis the right-hand side is the first unit vector
    (the rule must reproduce L_y(P_alpha) = delta_{alpha=0}).  Positivity
    is judged by `rejection`.
    """
    s1 = len(nodes)
    vand = basis.coeffs[:s1, :s1] @ eval_monomials(glex_enumerate(basis.n, basis.d)[:s1], nodes).T  # P_alpha(node k)
    rhs = np.zeros(s1)
    rhs[0] = 1.0
    try:
        gamma = np.linalg.solve(vand, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateSpectrumError("singular interpolation matrix: nodes are not distinct")
    return gamma * y.scale


def verify_exactness(
    rule: CubatureRule,
    y: MomentSequence,
    basis: OrthoBasis,
    box: tuple[float, float] | None = None,
) -> ExactnessReport:
    """Report the worst monomial error up to degree 2m-1 and node residuals.

    The error of monomial alpha is |sum_k w_k x_k^alpha - scale * y_alpha|
    divided by max(1, scale, scale * |y_alpha|, sum_k w_k |x_k^alpha|): the
    size of the terms it comes from, so that the large top moments of a
    wide-support measure do not read as inexact.
    """
    if rule.n != y.n:
        raise ValueError(f"rule has dimension {rule.n}, the measure {y.n}")
    vals = eval_monomials(glex_enumerate(y.n, 2 * rule.m - 1), rule.nodes)
    exact = y.vector(2 * rule.m - 1) * y.scale
    size = np.maximum(np.abs(exact), np.abs(rule.weights) @ np.abs(vals))
    size = np.maximum(size, max(1.0, y.scale))
    max_err = float((np.abs(rule.weights @ vals - exact) / size).max())
    node_res = float(np.abs(eval_P(basis, rule.m, rule.nodes)).max())
    inside = None
    if box is not None:
        lo, hi = box
        inside = bool(np.all(rule.nodes > lo) and np.all(rule.nodes < hi))
    return ExactnessReport(max_err, node_res, float(rule.weights.min()), inside)


def rejection(report: ExactnessReport, tol: float) -> str | None:
    """Why a rule fails acceptance at tol, or None: the scaled exactness error
    and the node residual are at most tol, every weight is positive, and no
    node lies outside a declared support."""
    if not report.max_error <= tol:
        return f"max exactness error {report.max_error:.3e} above tol {tol:.1e}"
    if not report.node_residual <= tol:
        return f"node residual {report.node_residual:.3e} above tol {tol:.1e}"
    if not report.min_weight > 0:
        return f"non-positive weight {report.min_weight:.3e}"
    if report.inside_support is False:
        return "a node lies outside the support"
    return None


def build_rule(
    y: MomentSequence,
    m: int,
    tol: float = 1e-8,
    box: tuple[float, float] | None = None,
) -> CubatureRule:
    """The rule of a measure passing the existence test, in its degree-m basis
    (moments to 2m), gated at tol: the operators commute and `rejection` accepts."""
    basis = build_orthobasis(y, m)
    ops = multiplication_operators(y, basis, m)
    nodes = extract_nodes(ops, tol=tol)
    weights = compute_weights(y, basis, nodes)
    rule = CubatureRule(y.n, m, nodes, weights, scale=y.scale)
    rule = replace(rule, report=verify_exactness(rule, y, basis, box=box))
    reason = rejection(rule.report, tol)
    if reason is not None:
        raise DegenerateSpectrumError(f"the rule fails verification: {reason}")
    return rule


# ---------------------------------------------------------------------------
# Rule file format, in the grammar of `measures.read_text`: a header, one
# `x1 ... xn : weight` record per node, written in hex-float (decimal values
# read too), and a trailing verification block in comments.


def store_rule(rule: CubatureRule, path) -> None:
    header = {"n": rule.n, "m": rule.m, "precision": rule.precision, "scale": rule.scale.hex()}
    records = [
        (" ".join(float(c).hex() for c in x), float(w).hex())
        for x, w in zip(rule.nodes, rule.weights, strict=True)
    ]
    lines = [format_text(header, records, " : ")]
    if rule.report is not None:
        lines.append(f"# max_exactness_error = {rule.report.max_error!r}")
        lines.append(f"# node_residual = {rule.report.node_residual!r}")
        lines.append(f"# min_weight = {rule.report.min_weight!r}")
        lines.append(f"# inside_support = {rule.report.inside_support}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_rule(path) -> CubatureRule:
    header, records = read_text(path, ("n", "m", "precision", "scale"))
    try:
        n = int(header["n"])
        m = int(header["m"])
        precision = int(header["precision"])
        scale = parse_value(header["scale"])
    except ValueError:
        raise MomentFormatError("malformed rule header")
    if precision != 2 * m - 1:
        raise MomentFormatError(f"precision {precision} is not 2m - 1 = {2 * m - 1}")
    expected = dim_total(n, m - 1)
    if len(records) != expected:
        raise MomentFormatError(f"rule has {len(records)} nodes, expected s_(m-1) = {expected}")
    nodes, weights = [], []
    for lineno, left, right in records:
        try:
            nodes.append([parse_value(tok) for tok in left.split()])
            weights.append(parse_value(right))
        except MomentFormatError:
            raise MomentFormatError(f"line {lineno}: bad rule record {left} : {right}")
        if len(nodes[-1]) != n:
            raise MomentFormatError(f"line {lineno}: node dimension mismatch in rule file")
    return CubatureRule(n, m, np.array(nodes), np.array(weights), scale=scale)
