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

from .indexing import GlexTable, MultiIndex, glex_enumerate
from .measures import MomentSequence, moment_matrix, psd_cholesky


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Coefficients of the orthonormal family up to degree d, Glex layout."""

    n: int
    d: int
    table: GlexTable
    coeffs: np.ndarray = field(repr=False)  # row alpha = P_alpha in monomial basis

    def block(self, m: int) -> slice:
        return self.table.block(m)

    def row(self, alpha: MultiIndex) -> np.ndarray:
        return self.coeffs[self.table.rank(alpha)]


def build_orthobasis(y: MomentSequence, d: int) -> OrthoBasis:
    """Orthonormalize the monomials up to degree d (needs moments to 2d)."""
    mm = moment_matrix(y, d)
    low = psd_cholesky(mm)
    # L^-1 = (D^-1 L)^-1 D^-1, D = sqrt(diag M): on the unit-norm rows of D^-1 L the
    # pivoted solve is as accurate as a triangular one, on L itself not when the
    # moments span many decades; tril keeps the exact zeros the slices rely on
    scale = np.sqrt(np.diag(mm))
    s = np.tril(np.linalg.solve(low / scale[:, None], np.eye(len(scale)))) / scale
    return OrthoBasis(y.n, d, glex_enumerate(y.n, d), s)


def eval_monomials(table: GlexTable, points) -> np.ndarray:
    """Values of every monomial in the table at points of shape (..., n): (..., len(table))."""
    x = np.asarray(points, dtype=float)
    return np.prod(x[..., None, :] ** np.array(table.indices), axis=-1)


def eval_P(basis: OrthoBasis, m: int, points) -> np.ndarray:
    """Values of the degree-m block (P_alpha, |alpha| = m) at points (..., n): (..., r_m)."""
    if m > basis.d:
        raise ValueError(f"basis built to degree {basis.d}, requested block {m}")
    return eval_monomials(basis.table, points) @ basis.coeffs[basis.block(m)].T
