"""Multi-index combinatorics and the graded lexicographic (Glex) order.

Multi-indices are rows of non-negative ints; the degree of an index is the
sum of its entries.  Every matrix and vector layout in the package is fixed
by the Glex rank defined here: lower total degree first, ties broken so that
a higher exponent on an earlier variable comes first (x1 heaviest).  The
layout is one cached integer array, `glex_enumerate` (row k is the index of
rank k), and its inverse, the closed form `glex_rank`; the indices of degree
<= d are the first `dim_total(n, d)` rows.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

MultiIndex = tuple[int, ...]

# Counts are kept within signed 64-bit range so a desk-scale misuse fails
# loudly instead of silently allocating absurd tables.
_COUNT_MAX = 2**63 - 1


def dim_total(n: int, d: int) -> int:
    """Number of monomials of degree <= d in n variables, C(n+d, d)."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    # C(n+d, d) >= 2^min(n, d): a count with min(n, d) >= 63 is out of range before comb would finish
    c = comb(n + d, d) if min(n, d) < 63 else _COUNT_MAX + 1
    if c > _COUNT_MAX:
        raise OverflowError(f"monomial count C({n + d},{d}) exceeds 64-bit range")
    return c


def dim_homog(n: int, d: int) -> int:
    """Number of monomials of degree exactly d in n variables, C(n+d-1, d)."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    c = comb(n + d - 1, d)
    if c > _COUNT_MAX:
        raise OverflowError(f"monomial count C({n + d - 1},{d}) exceeds 64-bit range")
    return c


def _glex_indices(n: int, d_max: int) -> list[MultiIndex]:
    """The indices of degree <= d_max in Glex order, built degree block by block.

    blocks[d] is the degree-d block in the last k variables.  Prepending a
    variable lists its exponent a descending, each followed by the block of
    degree d - a: that is the Glex order, so nothing is sorted.
    """
    blocks = [[(d,)] for d in range(d_max + 1)]
    for _ in range(n - 1):
        blocks = [[(a, *tail) for a in range(d, -1, -1) for tail in blocks[d - a]] for d in range(d_max + 1)]
    return [alpha for block in blocks for alpha in block]


@lru_cache(maxsize=None)
def glex_enumerate(n: int, d_max: int) -> np.ndarray:
    """All multi-indices of degree <= d_max, Glex-sorted: row k of the read-only
    (s_{d_max}, n) int64 array is the index of rank k.  Every caller shares it."""
    dim_total(n, d_max)  # validates arguments and the count range before anything is built
    exps = np.array(_glex_indices(n, d_max), dtype=np.int64)
    exps.setflags(write=False)
    return exps


def glex_rank(*exps) -> np.ndarray:
    """Glex ranks of index sums, the inverse of `glex_enumerate`: the rows of
    sum(exps), broadcast together.

    Each argument is an integer array whose last axis runs over the
    variables; the sum is never formed.  With t_i = alpha_i + ... + alpha_n
    the tail degrees (1-based i), rank(alpha) = sum_i C(n - i + t_i, n - i + 1).
    Term i counts the indices that agree with alpha before position i - 1
    and precede it there by a larger exponent (term 1: by a lower degree).
    """
    exps = [np.asarray(e) for e in exps]
    n = exps[0].shape[-1]
    shape = np.broadcast_shapes(*(e.shape[:-1] for e in exps))
    tail = np.zeros(shape, dtype=np.int64)
    rank = np.zeros(shape, dtype=np.int64)
    for j in range(n):  # j = n - i: walk the variables from the last one
        for e in exps:
            tail += e[..., n - 1 - j]
        binom = [comb(x, j + 1) for x in range(int(tail.max(initial=0)) + j + 1)]  # C(x, j + 1)
        rank += np.array(binom, dtype=np.int64)[tail + j]
    return rank


def index_rank(alpha, n: int, d_max: int) -> int:
    """Glex rank of one multi-index, which needs n entries >= 0 and degree <= d_max:
    `glex_rank`'s sum over the tail degrees, in Python ints."""
    a = tuple(map(int, alpha))
    if len(a) != n or min(a) < 0 or sum(a) > d_max:
        raise ValueError(f"{a} is not an index of degree <= {d_max} in {n} variables")
    rank = tail = 0
    for j in range(n):  # j = n - i, as in glex_rank
        tail += a[n - 1 - j]
        rank += comb(tail + j, j + 1)
    return rank


@lru_cache(maxsize=None)
def pair_ranks(n: int, d: int, var: int | None = None) -> np.ndarray:
    """Glex ranks of alpha + beta (+ e_var) over |alpha|, |beta| <= d, the layout of every
    moment matrix: y[pair_ranks(n, d)] is M_d, and var i gives L_y(x_i x^alpha x^beta).
    Cached like `glex_enumerate`: every caller shares the read-only (s_d, s_d) array."""
    exps = glex_enumerate(n, d)
    extra = () if var is None else (np.eye(n, dtype=np.int64)[var],)
    ranks = glex_rank(exps[:, None], exps[None, :], *extra)
    ranks.setflags(write=False)
    return ranks


def format_multiindex(alpha: MultiIndex) -> str:
    """Serialize as comma-joined integers, e.g. "2,1" for x1^2 x2."""
    return ",".join(str(a) for a in alpha)


def parse_multiindex(text: str, n: int | None = None) -> MultiIndex:
    parts = text.strip().split(",")
    try:
        alpha = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"malformed multi-index {text!r}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in multi-index {text!r}")
    if n is not None and len(alpha) != n:
        raise ValueError(f"multi-index {text!r} has dimension {len(alpha)}, expected {n}")
    return alpha
