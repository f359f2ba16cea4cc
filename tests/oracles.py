"""Independent cross-check oracles for the Glex order, the orthonormal basis and the existence test.

`glex_key` defines the Glex order as a sort key; `glex_enumerate` builds
the order block by block without sorting, and `glex_positions` reads each
index's rank off its row, not through `glex_rank`.
`triple_product` evaluates L_y(P_gamma P_beta P_kappa) entry by entry from
raw moments through the dict of one product's monomial coefficients that
`product_coeffs` builds, and `ortho_det_oracle` builds P_sigma from bordered
determinants; neither shares arithmetic with the kernels they check.

The paper decides existence by the solvability of an overdetermined system
over the pairs of degree-m orthonormal polynomials; its rows are in
`np.triu_indices` order of the Glex-ordered degree-m block.
`product_expansion` is that full system: every orthonormal coefficient of
every product, through the Cholesky factor of M_2m and so from moments to
degree 4m, and `full_expansion` reads every slice of one product from it.
`leading_form_system` is its top slice without the invertible factor
`top_factor`, which needs moments to degree 2m only, and `lstsq_verdict`
decides it by the least-squares residual.  On a YES its solution is the
moment shift v of `gausscub.existence.decide`, and `flat_completion`
shifts y's degree-2m moments by it: the moments of the Gaussian rule.

`load_moments_by_record` reads a moment file one record at a time, each
through its own regex, index parse, dict lookup and value parse: the
reference for `gausscub.measures.load_moments`, which checks all records as
whole arrays.

`symmetrized_moments_by_sum` writes each symmetrized moment as a binomial
sum over the Chebyshev-1 moments, in Python integers: the reference for
`gausscub.measures.catalog_moments`, which runs a recurrence instead.
"""

import math
import re
from collections import defaultdict
from functools import lru_cache

import numpy as np

from gausscub.indexing import MultiIndex, dim_homog, dim_total, glex_enumerate, glex_rank, parse_multiindex
from gausscub.measures import MomentFormatError, MomentSequence, moment_matrix, parse_value, psd_cholesky, read_text
from gausscub.ortho import OrthoBasis, build_orthobasis


def glex_key(alpha: MultiIndex):
    """Sort key realizing the Glex order (degree first, x1 heaviest)."""
    return (sum(alpha), tuple(-a for a in alpha))


@lru_cache(maxsize=None)
def glex_positions(n: int, d: int) -> dict[MultiIndex, int]:
    """Each index of degree <= d at its row of `glex_enumerate`: its rank, not through `glex_rank`."""
    return {tuple(a): i for i, a in enumerate(glex_enumerate(n, d).tolist())}


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
    k = glex_positions(y.n, d)[sigma]
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
    pos = glex_positions(basis.n, basis.d)
    exps = list(pos)
    s = basis.coeffs
    rg, rb = pos[tuple(gamma)], pos[tuple(beta)]
    prod: dict[MultiIndex, float] = defaultdict(float)
    for a in range(rg + 1):
        ca = s[rg, a]
        if ca == 0.0:
            continue
        ea = exps[a]
        for b in range(rb + 1):
            cb = s[rb, b]
            if cb == 0.0:
                continue
            prod[tuple(np.add(ea, exps[b]).tolist())] += ca * cb
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
    exps = list(glex_positions(basis.n, basis.d))
    ranks = glex_positions(y.n, y.d_max)
    s = basis.coeffs
    prod = product_coeffs(basis, gamma, beta)
    rk = ranks[tuple(kappa)]
    val = 0.0
    for c in range(rk + 1):
        cc = s[rk, c]
        if cc == 0.0:
            continue
        ec = exps[c]
        val += cc * sum(pc * y.array[ranks[tuple(np.add(e, ec).tolist())]] for e, pc in prod.items())
    return val


def product_monomials(basis: OrthoBasis, m: int) -> np.ndarray:
    """Monomial coefficients of every product P_gamma P_beta, |gamma| = |beta| = m.

    One row per pair, column rank(alpha) for |alpha| <= 2m holds the
    coefficient of x^alpha.  Needs the basis only to degree m.
    """
    sm, s2m = dim_total(basis.n, m), dim_total(basis.n, 2 * m)
    block = basis.coeffs[basis.block(m), :sm]
    left, right = (block[i] for i in np.triu_indices(block.shape[0]))
    exps = glex_enumerate(basis.n, basis.d)[:sm]
    sums = glex_rank(exps[:, None], exps[None, :])
    prod = np.zeros((left.shape[0], s2m))
    for a in range(sm):
        # e_a + e_b is distinct over b, so the scatter has no collisions
        prod[:, sums[a]] += left[:, a, None] * right
    return prod


def product_expansion(y: MomentSequence, basis: OrthoBasis, m: int) -> np.ndarray:
    """Orthonormal coefficients of every product P_gamma P_beta, |gamma| = |beta| = m.

    One row per pair, column rank(theta) for |theta| <= 2m holds
    L_y(P_gamma P_beta P_theta): the products' monomial coefficients times the
    Cholesky factor L of M_2m (M S^T = L).  Needs moments to degree 4m.
    """
    return product_monomials(basis, m) @ psd_cholesky(moment_matrix(y, 2 * m))


def top_factor(y: MomentSequence, m: int) -> np.ndarray:
    """L_top, the degree-2m diagonal block of the Cholesky factor of M_2m.

    The paper's A2m is the leading-form A2m times L_top, and its unknown u
    is S_top v = L_top^-1 v for the leading-form system's v.
    """
    top = slice(dim_total(y.n, 2 * m - 1), dim_total(y.n, 2 * m))
    return psd_cholesky(moment_matrix(y, 2 * m))[top, top]


def full_expansion(
    basis: OrthoBasis, y: MomentSequence, gamma: MultiIndex, beta: MultiIndex
) -> list[np.ndarray]:
    """All orthonormal-basis coefficients of P_gamma P_beta, one array per degree.

    The j=0 slice must be the Kronecker delta and the j=2m slice is the
    paper's A2m row of the pair.
    """
    m = sum(gamma)
    if sum(beta) != m:
        raise ValueError("full_expansion needs |gamma| = |beta|")
    offset = basis.block(m).start
    pair = tuple(sorted(glex_positions(y.n, m)[tuple(a)] - offset for a in (gamma, beta)))
    rows = list(zip(*np.triu_indices(dim_homog(y.n, m))))
    row = product_expansion(y, basis, m)[rows.index(pair)]
    return np.split(row, [dim_total(y.n, j) for j in range(2 * m)])


def leading_form_system(y: MomentSequence, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(a0, A2m) of the system a0 + A2m v = 0 that decides existence.

    a0 is the vectorized Kronecker delta and row (gamma, beta) of A2m holds
    the degree-2m monomial coefficients of P_gamma P_beta, so a0 + A2m v is
    L_z(P_gamma P_beta) for the sequence z that agrees with y below degree
    2m and has y_2m + v on top.  Needs moments to degree 2m.
    """
    rm = dim_homog(y.n, m)
    a0 = np.eye(rm)[np.triu_indices(rm)]
    a2m = product_monomials(build_orthobasis(y, m), m)[:, dim_total(y.n, 2 * m - 1) :]
    return a0, a2m


def lstsq_verdict(y: MomentSequence, m: int, tol: float = 1e-8) -> tuple[bool, np.ndarray, float]:
    """(exists, v, relative residual): minimum-norm least squares of a0 + A2m v = 0."""
    a0, a2m = leading_form_system(y, m)
    v = np.linalg.lstsq(a2m, -a0, rcond=1e-10)[0]
    relative = float(np.linalg.norm(a0 + a2m @ v) / np.linalg.norm(a0))
    return relative <= tol, v, relative


def flat_completion(y: MomentSequence, v: np.ndarray, m: int) -> MomentSequence:
    """y to degree 2m with the degree-2m moments shifted by v: flat, rank s_{m-1}, on a YES."""
    z = y.truncate(2 * m).array.copy()
    z[dim_total(y.n, 2 * m - 1) :] += v
    return MomentSequence(y.n, 2 * m, z, normalized=y.normalized, scale=y.scale)


_INDEX_RE = re.compile(r'"([0-9,]+)"')


def load_moments_by_record(path) -> MomentSequence:
    """A moment file read record by record: the first record at fault, in file
    order, raises MomentFormatError naming its line."""
    header, lines = read_text(path, ("n", "d_max", "normalized", "scale"))
    try:
        n = int(header["n"])
        d_max = int(header["d_max"])
    except ValueError:
        raise MomentFormatError("n and d_max must be integers")
    if header["normalized"] not in ("true", "false"):
        raise MomentFormatError("normalized must be true or false")
    normalized = header["normalized"] == "true"
    scale = parse_value(header["scale"])
    records: dict[MultiIndex, float] = {}
    for lineno, left, right in lines:
        if (index := _INDEX_RE.fullmatch(left)) is None:
            raise MomentFormatError(f"line {lineno}: a record needs a quoted multi-index, got {left!r}")
        try:
            alpha = parse_multiindex(index[1], n)
        except ValueError as e:
            raise MomentFormatError(f"line {lineno}: {e}")
        if alpha in records:
            raise MomentFormatError(f"line {lineno}: duplicate multi-index {alpha}")
        if sum(alpha) > d_max:
            raise MomentFormatError(f"line {lineno}: multi-index {alpha} exceeds declared d_max={d_max}")
        try:
            records[alpha] = parse_value(right)
        except MomentFormatError as e:
            raise MomentFormatError(f"line {lineno}: {e}")
        if not math.isfinite(records[alpha]):
            raise MomentFormatError(f"line {lineno}: non-finite value for {alpha}")
    # the records are distinct and of degree <= d_max: complete iff there are s_(d_max)
    expected = dim_total(n, d_max)
    if len(records) != expected:
        raise MomentFormatError(f"incomplete moment file: missing {expected - len(records)} of {expected} moments")
    array = np.array([records[a] for a in map(tuple, glex_enumerate(n, d_max).tolist())])
    if normalized and array[0] != 1.0:
        raise MomentFormatError("file declares normalized = true but y_0 != 1")
    try:
        return MomentSequence(n, d_max, array, normalized=normalized, scale=scale)
    except ValueError as e:
        raise MomentFormatError(str(e))


def _chebyshev_pair_sum(a: int, b: int) -> int:
    """N(a, b) = 2^(a+2b) E[(t1+t2)^a (t1 t2)^b] for t1, t2 i.i.d. under the
    probability Chebyshev-1 weight, whose moment of order 2j is C(2j, j) / 4^j."""
    total = 0
    for k in range(a + 1):
        i, j = k + b, a - k + b  # the powers of t1 and t2
        if i % 2 == j % 2 == 0:
            total += math.comb(a, k) * math.comb(i, i // 2) * math.comb(j, j // 2)
    return total


def symmetrized_moments_by_sum(d_max: int) -> np.ndarray:
    """The Glex-ordered moments of symmetrized:0.5 to degree d_max, each one
    integer over a power of two, correctly rounded: (t1 - t2)^2 = s^2 - 4p gives
    y_(a,b) = (N(a+2, b) - 4 N(a, b+1)) / 2^(a+2b+2)."""
    return np.array(
        [
            (_chebyshev_pair_sum(a + 2, b) - 4 * _chebyshev_pair_sum(a, b + 1)) / 2 ** (a + 2 * b + 2)
            for a, b in glex_enumerate(2, d_max).tolist()
        ]
    )
