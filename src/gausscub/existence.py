"""Existence test for a degree-(2m-1) Gaussian cubature rule.

The product of any two degree-m orthonormal polynomials expands in the
orthonormal basis with a Kronecker-delta constant coefficient and top-degree
coefficients L_y(P_gamma P_beta P_kappa), |kappa| = 2m.  Existence of the
rule is equivalent to solvability of the overdetermined linear system pairing
those two slices; we decide it by the relative least-squares residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .indexing import MultiIndex
from .measures import MomentSequence
from .ortho import OrthoBasis, product_expansion


@dataclass(frozen=True, eq=False)
class ExpansionSystem:
    """The t_m x r_2m system: a0 + A2m u = 0 decides existence."""

    n: int
    m: int
    a0: np.ndarray = field(repr=False)  # length t_m, pair_rank layout
    A2m: np.ndarray = field(repr=False)  # t_m x r_2m, columns Glex over |kappa|=2m
    pairs: tuple[tuple[MultiIndex, MultiIndex], ...] = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.A2m.shape


@dataclass(frozen=True)
class Verdict:
    exists: bool
    u: np.ndarray = field(repr=False)
    residual: float
    relative_residual: float
    rank: int
    tol: float


def assemble_system(y: MomentSequence, basis: OrthoBasis, m: int) -> ExpansionSystem:
    """Fill a0 with Kronecker deltas and A2m with the top-degree coefficients.

    Needs y probability-normalized with moments to degree 4m and the basis
    built to degree 2m.  A2m is the top slice of `product_expansion`: the
    degree-2m monomial part of each product times the top diagonal block of
    the Cholesky factor.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not y.normalized:
        raise ValueError("assemble_system needs a probability-normalized sequence")
    if y.d_max < 4 * m:
        raise ValueError(f"existence at level m={m} needs moments to degree {4 * m}, have {y.d_max}")
    if basis.d < 2 * m:
        raise ValueError(f"basis built to degree {basis.d}, need {2 * m}")
    block_m = basis.table.indices[basis.block(m)]
    pairs = tuple((gamma, beta) for i, gamma in enumerate(block_m) for beta in block_m[i:])
    a0 = np.array([1.0 if gamma == beta else 0.0 for gamma, beta in pairs])
    a2m = product_expansion(basis, m)[:, basis.block(2 * m)]
    return ExpansionSystem(y.n, m, a0, a2m, pairs)


def solve_existence(system: ExpansionSystem, tol: float = 1e-8) -> Verdict:
    """Minimum-norm least-squares solve of A2m u = -a0; verdict by residual."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not np.all(np.isfinite(system.A2m)) or not np.all(np.isfinite(system.a0)):
        raise ValueError("non-finite entries in the expansion system")
    u, _, rank, _ = np.linalg.lstsq(system.A2m, -system.a0, rcond=1e-10)
    residual = float(np.linalg.norm(system.a0 + system.A2m @ u))
    a0_norm = float(np.linalg.norm(system.a0))
    relative = residual / a0_norm
    return Verdict(
        exists=relative <= tol,
        u=u,
        residual=residual,
        relative_residual=relative,
        rank=int(rank),
        tol=tol,
    )
