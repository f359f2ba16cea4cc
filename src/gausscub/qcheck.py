"""Certificate polynomial built from an existence solution, and its checks.

A positive verdict is equivalent to existence of a degree-2m combination Q
of the orthonormal polynomials with integral(P_gamma P_beta Q) = delta for
all degree-m pairs.  With v the verdict's moment shift and u = S_top v, that
identity holds for Q = -u^T P_2m, the one certificate built here (the +u
sign would make the pairing return -I instead).

Every check pairs Q with the raw moments: `build_Q` multiplies the moment
matrix with Q's monomial coefficients once, L_y(x^alpha Q) for |alpha| <= 2m,
and each identity is a gather or a contraction of that pairing with monomial
coefficients, evaluated in np.longdouble so that the reported deviation is
the certificate's and not rounding noise.  The checks never go through the
Cholesky factor: there L_y(P_gamma P_beta Q) - delta is the existence
defect itself, and the top-degree pairing is -u exactly, so both checks
would hold by construction.  The remark's rule is `cubature`'s (`build_rule`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cubature import CubatureRule
from .indexing import dim_homog, dim_total, pair_ranks
from .measures import MomentSequence, moment_matrix
from .ortho import OrthoBasis, eval_P


@dataclass(frozen=True, eq=False)
class CertificatePolynomial:
    n: int
    m: int
    u: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)  # monomial basis, Glex ranks up to s_2m
    pairing: np.ndarray = field(repr=False)  # L_y(x^alpha Q), |alpha| <= 2m, np.longdouble


@dataclass(frozen=True)
class RemarkReport:
    """Deviations of the four identities tying Q to the cubature rule."""

    u_from_rule: float  # u vs the weighted top-degree basis values at the nodes
    low_degree: float  # L_y(P_alpha Q) for |alpha| < 2m (must vanish)
    top_degree: float  # L_y(P_alpha Q) vs -u_alpha for |alpha| = 2m
    mean: float  # integral of Q itself (must vanish)


def build_Q(y: MomentSequence, basis: OrthoBasis, v: np.ndarray) -> CertificatePolynomial:
    """Monomial coefficients of -u^T P_2m (degree-2m block of y's basis), paired with y.

    v is the existence solution (the degree-2m moment shift); u = S_top v.
    """
    if basis.d % 2 != 0:
        raise ValueError("basis degree must be even (2m)")
    m = basis.d // 2
    r2m = dim_homog(basis.n, 2 * m)
    v = np.asarray(v, dtype=float)
    if v.shape != (r2m,):
        raise ValueError(f"v must have length r_2m = {r2m}")
    top = basis.block(2 * m)
    u = basis.coeffs[top, top] @ v
    coeffs = -(u @ basis.coeffs[top])
    pairing = moment_matrix(y, 2 * m).astype(np.longdouble) @ coeffs  # and so are its contractions
    return CertificatePolynomial(basis.n, m, u, coeffs, pairing)


def verify_corollary(basis: OrthoBasis, q: CertificatePolynomial) -> float:
    """Max deviation of L_y(P_gamma P_beta Q), |gamma| = |beta| = m, from the identity matrix.

    The pairing is S_m H S_m^T with H[a, b] = L_y(x^(a+b) Q), a gather of
    q.pairing.
    """
    sm = dim_total(q.n, q.m)
    h = q.pairing[pair_ranks(q.n, q.m)]
    s = basis.coeffs[basis.block(q.m), :sm]
    g = s @ h @ s.T
    return float(np.abs(g - np.eye(len(s))).max())


def verify_remark(basis: OrthoBasis, q: CertificatePolynomial, rule: CubatureRule) -> RemarkReport:
    """Check the rule/certificate identities; all deviations should be ~0."""
    w_prob = rule.weights / rule.scale
    u_rule = w_prob @ eval_P(basis, 2 * q.m, rule.nodes)
    dev_u = float(np.abs(u_rule - q.u).max())
    pq = basis.coeffs @ q.pairing  # L_y(P_alpha Q), |alpha| <= 2m
    top = basis.block(2 * q.m)
    dev_low = float(np.abs(pq[: top.start]).max())
    # |alpha| = 2m slice: orthonormality turns the pairing into -u_alpha.
    dev_top = float(np.abs(pq[top] + q.u).max())
    return RemarkReport(dev_u, dev_low, dev_top, float(abs(q.pairing[0])))
