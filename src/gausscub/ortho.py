"""Orthonormal polynomial families for a moment sequence.

The family is represented by a lower-triangular coefficient matrix S over
the Glex monomial basis: row alpha holds the monomial coefficients of
P_alpha.  It is S = L^-1 for the Cholesky factor L of the moment matrix,
the unique family with unit norms, triangular support and positive leading
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .indexing import MultiIndex, dim_total, glex_enumerate, index_rank
from .measures import MomentSequence, moment_matrix, psd_cholesky


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Coefficients of the orthonormal family up to degree d: row k holds the
    monomial coefficients of P_alpha, alpha the index of Glex rank k, in the
    columns of `glex_enumerate(n, d)`."""

    n: int
    d: int
    coeffs: np.ndarray = field(repr=False)

    def block(self, m: int) -> slice:
        """The rows of degree exactly m."""
        if not 0 <= m <= self.d:
            raise ValueError(f"basis built to degree {self.d}, requested block {m}")
        return slice(dim_total(self.n, m - 1) if m else 0, dim_total(self.n, m))

    def row(self, alpha: MultiIndex) -> np.ndarray:
        return self.coeffs[index_rank(alpha, self.n, self.d)]


def build_orthobasis(y: MomentSequence, d: int) -> OrthoBasis:
    """Orthonormalize the monomials up to degree d (needs moments to 2d)."""
    mm = moment_matrix(y, d)
    low = psd_cholesky(mm)
    # L^-1 = (D^-1 L)^-1 D^-1, D = sqrt(diag M): on the unit-norm rows of D^-1 L the
    # pivoted solve is as accurate as a triangular one, on L itself not when the
    # moments span many decades; tril keeps the exact zeros the slices rely on
    scale = np.sqrt(np.diag(mm))
    s = np.tril(np.linalg.solve(low / scale[:, None], np.eye(len(scale)))) / scale
    return OrthoBasis(y.n, d, s)


def eval_monomials(exps: np.ndarray, points) -> np.ndarray:
    """Values of the monomials x^exps[k] at points of shape (..., n): (..., len(exps))."""
    x = np.asarray(points, dtype=float)
    return np.prod(x[..., None, :] ** exps, axis=-1)


def eval_P(basis: OrthoBasis, m: int, points) -> np.ndarray:
    """Values of the degree-m block (P_alpha, |alpha| = m) at points (..., n): (..., r_m)."""
    return eval_monomials(glex_enumerate(basis.n, basis.d), points) @ basis.coeffs[basis.block(m)].T
