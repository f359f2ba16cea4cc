"""Independent cross-check oracles for the orthonormal basis and the kernel.

`triple_product` evaluates L_y(P_gamma P_beta P_kappa) entry by entry from
raw moments through the dict of one product's monomial coefficients that
`product_coeffs` builds, and `ortho_det_oracle` builds P_sigma from bordered
determinants; neither shares arithmetic with the Cholesky-factor kernel
they check.  `full_expansion` reads every slice of one product from that
kernel, as `assemble_system` does.
"""

from collections import defaultdict

import numpy as np

from gausscub.indexing import MultiIndex, add, glex_enumerate, pair_rank
from gausscub.measures import MomentSequence, moment_matrix
from gausscub.ortho import OrthoBasis, product_expansion


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


def full_expansion(
    basis: OrthoBasis, y: MomentSequence, gamma: MultiIndex, beta: MultiIndex
) -> list[np.ndarray]:
    """All orthonormal-basis coefficients of P_gamma P_beta, one array per degree.

    The j=0 slice must be the Kronecker delta and the j=2m slice must match
    the assembled system row.  `y` is not read: the kernel takes the moments
    from the basis' Cholesky factor.
    """
    m = sum(gamma)
    if sum(beta) != m:
        raise ValueError("full_expansion needs |gamma| = |beta|")
    row = product_expansion(basis, m)[pair_rank(gamma, beta, m)]
    return [row[basis.block(j)] for j in range(2 * m + 1)]
