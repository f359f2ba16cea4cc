"""Existence test for a degree-(2m-1) Gaussian cubature rule.

The product of any two degree-m orthonormal polynomials expands in the
orthonormal basis with a Kronecker-delta constant coefficient and top-degree
coefficients L_y(P_gamma P_beta P_kappa), |kappa| = 2m.  Existence of the
rule is equivalent to solvability of the overdetermined linear system pairing
those two slices; we decide it by the relative least-squares residual.

Those coefficients are the products' degree-2m monomial part times an
invertible block of the Cholesky factor of M_2m, which changes the unknown
and not the verdict.  So the system here drops that block: its unknown v is
the degree-2m moment shift of the flat completion, and it needs moments to
degree 2m only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .indexing import MultiIndex, dim_total
from .measures import MomentSequence
from .ortho import OrthoBasis, product_monomials


class NoiseFloorError(Exception):
    """A NO verdict whose residual rounding alone could explain."""


@dataclass(frozen=True, eq=False)
class ExpansionSystem:
    """The t_m x r_2m system: a0 + A2m v = 0 decides existence."""

    n: int
    m: int
    a0: np.ndarray = field(repr=False)  # length t_m, pair_rank layout
    A2m: np.ndarray = field(repr=False)  # t_m x r_2m, columns Glex over |kappa|=2m
    pairs: tuple[tuple[MultiIndex, MultiIndex], ...] = field(repr=False)
    noise_floor: float = 0.0  # eps * cond_2 of D^-1 M_m D^-1, D = sqrt(diag M_m); 0 sets no floor

    @property
    def shape(self) -> tuple[int, int]:
        return self.A2m.shape


@dataclass(frozen=True)
class Verdict:
    exists: bool
    u: np.ndarray = field(repr=False)  # the degree-2m moment shift v
    residual: float
    relative_residual: float
    rank: int
    tol: float


def assemble_system(y: MomentSequence, basis: OrthoBasis, m: int) -> ExpansionSystem:
    """Fill a0 with Kronecker deltas and A2m with the products' top-degree monomials.

    Needs y probability-normalized with moments to degree 2m and the basis
    built to degree m.  Row (gamma, beta) of A2m holds the degree-2m monomial
    coefficients of P_gamma P_beta, so a0 + A2m v is L_z(P_gamma P_beta) for
    the sequence z that agrees with y below degree 2m and has y_2m + v on top.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not y.normalized:
        raise ValueError("assemble_system needs a probability-normalized sequence")
    if y.d_max < 2 * m:
        raise ValueError(f"existence at level m={m} needs moments to degree {2 * m}, have {y.d_max}")
    if basis.d < m:
        raise ValueError(f"basis built to degree {basis.d}, need {m}")
    block_m = basis.table.indices[basis.block(m)]
    pairs = tuple((gamma, beta) for i, gamma in enumerate(block_m) for beta in block_m[i:])
    a0 = np.array([1.0 if gamma == beta else 0.0 for gamma, beta in pairs])
    a2m = product_monomials(basis, m)[:, dim_total(y.n, 2 * m - 1) :]
    # S_m D_m inverts the leading block of D^-1 L, so its squared condition
    # number is that of M_m scaled to unit diagonal, D^-1 M_m D^-1
    sm = dim_total(y.n, m)
    noise_floor = np.finfo(float).eps * np.linalg.cond(basis.coeffs[:sm, :sm] * basis.scale[:sm]) ** 2
    return ExpansionSystem(y.n, m, a0, a2m, pairs, float(noise_floor))


def solve_existence(system: ExpansionSystem, tol: float = 1e-8) -> Verdict:
    """Minimum-norm least-squares solve of A2m v = -a0; verdict by residual.

    A NO whose relative residual does not clear the system's noise floor
    raises NoiseFloorError instead of returning a verdict.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not np.all(np.isfinite(system.A2m)) or not np.all(np.isfinite(system.a0)):
        raise ValueError("non-finite entries in the expansion system")
    v, _, rank, _ = np.linalg.lstsq(system.A2m, -system.a0, rcond=1e-10)
    residual = float(np.linalg.norm(system.a0 + system.A2m @ v))
    a0_norm = float(np.linalg.norm(system.a0))
    relative = residual / a0_norm
    if tol < relative <= system.noise_floor:
        raise NoiseFloorError(
            f"relative residual {relative:.3e} above tol {tol:.1e}"
            f" is within the noise floor {system.noise_floor:.3e}"
        )
    return Verdict(
        exists=relative <= tol,
        u=v,
        residual=residual,
        relative_residual=relative,
        rank=int(rank),
        tol=tol,
    )
