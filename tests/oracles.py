"""Independent cross-check oracles for the orthonormal basis and the kernel.

`triple_product` evaluates L_y(P_gamma P_beta P_kappa) entry by entry from
raw moments through the dict of one product's monomial coefficients that
`product_coeffs` builds, and `ortho_det_oracle` builds P_sigma from bordered
determinants; neither shares arithmetic with the kernels they check.
`product_expansion` is the paper's full system: every orthonormal
coefficient of every product, through the Cholesky factor of M_2m and so
from moments to degree 4m.  Its top slice is the assembled A2m times
`top_factor`, and `full_expansion` reads every slice of one product from it.
"""

from collections import defaultdict

import numpy as np

from gausscub.indexing import MultiIndex, add, glex_enumerate, pair_rank
from gausscub.measures import MomentSequence, moment_matrix, psd_cholesky
from gausscub.ortho import OrthoBasis, product_monomials


def ortho_det_oracle(y: MomentSequence, sigma: MultiIndex) -> np.ndarray:
    """Bordered-determinant construction of P_sigma.

    Expands the determinant of the moment submatrix (rows strictly below
    sigma, columns up to sigma, a monomial row appended) by cofactors of the
    last row, then normalizes to unit norm and positive leading coefficient.
    Returns monomial coefficients over the ranks 0..rank(sigma).
    """
    sigma = tuple(sigma)
    d = sum(sigma)
    mm = moment_matrix(y, d)
    k = glex_enumerate(y.n, d).rank(sigma)
    sub = mm[:k, : k + 1]
    coeff = np.empty(k + 1)
    for j in range(k + 1):
        cols = [c for c in range(k + 1) if c != j]
        coeff[j] = (-1.0) ** (k + j) * np.linalg.det(sub[:, cols])
    norm2 = coeff @ mm[: k + 1, : k + 1] @ coeff
    if norm2 <= 0:
        raise ValueError(f"degenerate moments: zero bordered determinant for sigma={sigma}")
    coeff /= np.sqrt(norm2)
    if coeff[k] < 0:
        coeff = -coeff
    return coeff


def product_coeffs(basis: OrthoBasis, gamma: MultiIndex, beta: MultiIndex) -> dict:
    """Monomial coefficients of P_gamma * P_beta, as exponent -> value."""
    t = basis.table
    s = basis.coeffs
    rg, rb = t.rank(gamma), t.rank(beta)
    prod: dict[MultiIndex, float] = defaultdict(float)
    for a in range(rg + 1):
        ca = s[rg, a]
        if ca == 0.0:
            continue
        ea = t.indices[a]
        for b in range(rb + 1):
            cb = s[rb, b]
            if cb == 0.0:
                continue
            prod[add(ea, t.indices[b])] += ca * cb
    return prod


def triple_product(
    y: MomentSequence,
    basis: OrthoBasis,
    gamma: MultiIndex,
    beta: MultiIndex,
    kappa: MultiIndex,
) -> float:
    """L_y(P_gamma P_beta P_kappa); needs moments to |gamma|+|beta|+|kappa|."""
    total = sum(gamma) + sum(beta) + sum(kappa)
    if y.d_max < total:
        raise ValueError(f"triple product needs moments to degree {total}, have {y.d_max}")
    t = basis.table
    s = basis.coeffs
    prod = product_coeffs(basis, gamma, beta)
    rk = t.rank(kappa)
    val = 0.0
    for c in range(rk + 1):
        cc = s[rk, c]
        if cc == 0.0:
            continue
        ec = t.indices[c]
        val += cc * sum(pc * y.value(add(e, ec)) for e, pc in prod.items())
    return val


def product_expansion(y: MomentSequence, basis: OrthoBasis, m: int) -> np.ndarray:
    """Orthonormal coefficients of every product P_gamma P_beta, |gamma| = |beta| = m.

    Row pair_rank(gamma, beta, m), column rank(theta) for |theta| <= 2m holds
    L_y(P_gamma P_beta P_theta): the products' monomial coefficients times the
    Cholesky factor L of M_2m (M S^T = L).  Needs moments to degree 4m.
    """
    return product_monomials(basis, m) @ psd_cholesky(moment_matrix(y, 2 * m))


def top_factor(y: MomentSequence, m: int) -> np.ndarray:
    """L_top, the degree-2m diagonal block of the Cholesky factor of M_2m.

    The paper's A2m is the assembled A2m times L_top, and its unknown u is
    S_top v = L_top^-1 v for the assembled system's v.
    """
    top = glex_enumerate(y.n, 2 * m).block(2 * m)
    return psd_cholesky(moment_matrix(y, 2 * m))[top, top]


def full_expansion(
    basis: OrthoBasis, y: MomentSequence, gamma: MultiIndex, beta: MultiIndex
) -> list[np.ndarray]:
    """All orthonormal-basis coefficients of P_gamma P_beta, one array per degree.

    The j=0 slice must be the Kronecker delta and the j=2m slice must match
    the assembled system row times `top_factor`.
    """
    m = sum(gamma)
    if sum(beta) != m:
        raise ValueError("full_expansion needs |gamma| = |beta|")
    row = product_expansion(y, basis, m)[pair_rank(gamma, beta, m)]
    table = glex_enumerate(y.n, 2 * m)
    return [row[table.block(j)] for j in range(2 * m + 1)]
