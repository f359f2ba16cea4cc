"""Existence test for a degree-(2m-1) Gaussian cubature rule.

Write the moment matrix M_m = [[A, B], [B^T, C]] with A = M_{m-1}, so C holds
the degree-2m moments y_(alpha+alpha'), |alpha| = |alpha'| = m.  A rule with
s_{m-1} nodes exists iff a shift v of the degree-2m moments makes the
completion flat, rank M_m = rank M_{m-1}: C + V = B^T A^-1 B with
V[alpha, alpha'] = v_(alpha+alpha') (the flat extension of Curto-Fialkow,
Mem. AMS 568, 1996).  So the rule exists iff R = B^T A^-1 B - C is Hankel,
R[alpha, alpha'] depending only on alpha + alpha', and v is R's value on each
class.  This is the paper's overdetermined system in closed form: on a YES
its solution is the same v, and it needs moments to degree 2m only.

Everything is computed on the equilibrated D^-1 M_m D^-1, D = sqrt(diag M_m),
so the defect does not change when a variable is stretched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .indexing import dim_total, pair_ranks
from .measures import MomentSequence, moment_matrix, psd_cholesky


class NoiseFloorError(Exception):
    """A NO verdict whose defect rounding alone could explain."""


@dataclass(frozen=True)
class Verdict:
    exists: bool
    u: np.ndarray = field(repr=False)  # the degree-2m moment shift v
    residual: float
    relative_residual: float
    tol: float
    noise_floor: float
    defect: np.ndarray = field(repr=False)  # R^ minus its class means, r_m x r_m
    rounding: float  # eps cond(L^)^2 ||C^||: the absolute level rounding reaches
    schur: np.ndarray = field(repr=False)  # R^ = W^T W - C^, r_m x r_m

    @property
    def rank(self) -> int:
        """Numerical rank of R^ at the rounding level, 0 for flat data."""
        return int(np.linalg.matrix_rank(self.schur, tol=self.rounding))

    def defect_rank(self) -> int:
        """Numerical rank of the defect at the rounding level; 0 for a flat completion,
        whose moment matrix M_m then has rank s_{m-1}."""
        return int(np.linalg.matrix_rank(self.defect, tol=self.rounding))


def decide(y: MomentSequence, m: int, tol: float = 1e-8) -> Verdict:
    """Hankel test on the Schur complement of M_{m-1} in M_m; needs moments to 2m.

    The defect is R minus its class means, measured on the equilibrated
    scale and relative to the equilibrated R, or to C^ when R^ is no larger
    than the rounding of W^T W - C^ itself (flat data, whose R^ and defect
    are noise).  A NO whose relative defect does not clear the noise floor
    eps cond(A^) ||C^|| / ||R^|| (on flat data eps cond(A^)) raises
    NoiseFloorError instead of returning a verdict.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if y.d_max < 2 * m:
        raise ValueError(f"existence at level m={m} needs moments to degree {2 * m}, have {y.d_max}")
    mm = moment_matrix(y, m)
    if not np.all(np.isfinite(mm)):
        raise ValueError("non-finite moments")
    diag = np.diag(mm)
    d = np.sqrt(np.where(diag > 0, diag, 1.0))
    mh = mm / np.outer(d, d)
    s1 = dim_total(y.n, m - 1)
    low = psd_cholesky(mh[:s1, :s1])
    w = np.linalg.solve(low, mh[:s1, s1:])
    ch = mh[s1:, s1:]
    rh = w.T @ w - ch
    # class of (alpha, alpha') = position of alpha + alpha' among the degree-2m indices
    cls = (pair_ranks(y.n, m)[s1:, s1:] - dim_total(y.n, 2 * m - 1)).ravel()
    dc = np.outer(d[s1:], d[s1:]).ravel()
    v = np.bincount(cls, rh.ravel() * dc) / np.bincount(cls)
    defect = rh.ravel() - v[cls] / dc
    residual = float(np.linalg.norm(defect))
    rnorm = float(np.linalg.norm(rh))
    cnorm = float(np.linalg.norm(ch))
    eps = np.finfo(float).eps
    rounding = eps * np.linalg.cond(low) ** 2 * cnorm
    # An R^ within the rounding of the subtraction that forms it, (s1 + 1) eps (||W||^2 + ||C^||),
    # is flat data: relative to R^ its defect is noise, relative to C^ it is not.
    flat = rnorm <= (s1 + 1) * eps * (float(np.vdot(w, w)) + cnorm)
    ref = cnorm if flat else rnorm
    relative = residual / ref if ref else 0.0
    noise_floor = rounding / ref if ref else math.inf
    if tol < relative <= noise_floor:
        raise NoiseFloorError(
            f"relative residual {relative:.3e} above tol {tol:.1e}"
            f" is within the noise floor {noise_floor:.3e}"
        )
    return Verdict(
        exists=relative <= tol,
        u=v,
        residual=residual,
        relative_residual=relative,
        tol=tol,
        noise_floor=float(noise_floor),
        defect=defect.reshape(rh.shape),
        rounding=float(rounding),
        schur=rh,
    )
