"""Independent references for the benchmark's correctness gate.

Nothing here imports gausscub.  Reference Gauss rules come from
numpy.polynomial, from closed forms, or from a Lanczos run on the atoms of a
discrete measure; reference moments come from high-order reference rules or
straight from the atoms.  Every rule the program writes is compared with
these, never with the program's own self-checks.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev, hermite_e, legendre

EPS = float(np.finfo(float).eps)

# Points of the reference rules used for exact moments: exact far beyond the
# degree 2m - 1 <= 19 of any monomial the benchmark checks.
MOMENT_POINTS = 40


def gauss_1d(weight: str, p: int) -> tuple[np.ndarray, np.ndarray]:
    """p-point Gauss rule for a catalog 1-D weight, unnormalized, nodes ascending."""
    if weight == "lebesgue":
        x, w = legendre.leggauss(p)
    elif weight == "chebyshev1":
        x, w = chebyshev.chebgauss(p)
    elif weight == "chebyshev2":
        # zeros of U_p, weight sqrt(1 - x^2)
        t = np.arange(1, p + 1) * math.pi / (p + 1)
        x, w = np.cos(t), math.pi / (p + 1) * np.sin(t) ** 2
    elif weight == "hermite":
        x, w = hermite_e.hermegauss(p)  # weight exp(-x^2 / 2)
    else:
        raise ValueError(f"no reference rule for weight {weight!r}")
    order = np.argsort(x)
    return x[order], w[order]


def symmetrized_nodes(m: int) -> np.ndarray:
    """Nodes of the degree-(2m-1) Gaussian rule of the symmetrized Chebyshev measure.

    For the weight w(t1) w(t2) (t1 - t2)^2 pushed to (t1 + t2, t1 t2), with w
    the Chebyshev weight of the first kind, the rule exists and its nodes are
    (x_j + x_k, x_j x_k) for j < k, x the zeros of T_{m+1} (Xu's gamma = 1/2
    case).
    """
    x = np.cos((2 * np.arange(1, m + 2) - 1) * math.pi / (2 * (m + 1)))
    return np.array([(x[j] + x[k], x[j] * x[k]) for j in range(m + 1) for k in range(j + 1, m + 1)])


def symmetrized_atoms() -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Chebyshev atoms carrying the symmetrized measure's moments."""
    t, w = chebyshev.chebgauss(MOMENT_POINTS)
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    weights = np.outer(w, w) * (t1 - t2) ** 2
    return np.column_stack([(t1 + t2).ravel(), (t1 * t2).ravel()]), weights.ravel()


def lanczos_gauss(x: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """Nodes of the p-point Gauss rule of the 1-D discrete measure sum w_i delta(x_i).

    Lanczos on diag(x) from the start vector sqrt(w), with full
    reorthogonalisation, gives the Jacobi matrix of the measure.
    """
    q = np.sqrt(w / w.sum())
    basis = [q]
    alpha, beta = [], []
    for k in range(p):
        v = x * basis[k]
        alpha.append(basis[k] @ v)
        for b in basis:
            v = v - (b @ v) * b
        for b in basis:
            v = v - (b @ v) * b
        if k + 1 < p:
            beta.append(np.linalg.norm(v))
            basis.append(v / beta[-1])
    jac = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return np.sort(np.linalg.eigvalsh(jac))


def glex_indices(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponents of degree <= d in n variables, in graded order."""
    out = [()]
    for _ in range(n):
        out = [a + (k,) for a in out for k in range(d + 1) if sum(a) + k <= d]
    return sorted(out, key=lambda a: (sum(a), tuple(-k for k in a)))


def exactness_error(nodes, weights, atoms, atom_weights, degree: int) -> float:
    """Worst relative monomial error of a rule against a reference measure.

    Each error |Q(x^a) - I(x^a)| is divided by I(|x^a|), so odd monomials
    with zero integral are judged on the same footing as even ones.
    """
    worst = 0.0
    for alpha in glex_indices(nodes.shape[1], degree):
        a = np.array(alpha)
        approx = float(weights @ np.prod(nodes**a, axis=1))
        values = np.prod(atoms**a, axis=1)
        worst = max(worst, abs(approx - float(atom_weights @ values)) / float(atom_weights @ np.abs(values)))
    return worst


def node_error(nodes: np.ndarray, reference: np.ndarray) -> float:
    """Symmetric (Hausdorff) distance between node sets, relative to max(1, |ref|)."""
    if nodes.shape != reference.shape:
        return math.inf
    dist = np.linalg.norm(nodes[:, None, :] - reference[None, :, :], axis=2)
    size = np.maximum(1.0, np.linalg.norm(reference, axis=1))
    return float(max((dist.min(axis=0) / size).max(), (dist.min(axis=1) / size[dist.argmin(axis=1)]).max()))


def decades(err: float) -> float:
    """Correct decimal digits, -log10(err), with err floored at machine epsilon
    (and capped, so that a missing or unreadable result stays finite)."""
    return -math.log10(min(max(err, EPS), 1e300))
