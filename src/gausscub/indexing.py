"""Multi-index combinatorics and the graded lexicographic (Glex) order.

Multi-indices are plain tuples of non-negative ints; the degree of an index
is the sum of its entries.  Every matrix and vector layout in the package is
fixed by the Glex rank defined here: lower total degree first, ties broken
so that a higher exponent on an earlier variable comes first (x1 heaviest).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    c = comb(n + d, d)
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


@dataclass(frozen=True, eq=False)
class GlexTable:
    """All multi-indices of degree <= d_max in n variables, in Glex order."""

    n: int
    d_max: int
    indices: tuple[MultiIndex, ...]
    _rank: dict[MultiIndex, int]

    def __len__(self) -> int:
        return len(self.indices)

    def rank(self, alpha: MultiIndex) -> int:
        try:
            return self._rank[tuple(alpha)]
        except KeyError:
            raise ValueError(f"{alpha} not in table (n={self.n}, d_max={self.d_max})")

    def offset(self, d: int) -> int:
        """Rank of the first index of degree d."""
        return 0 if d == 0 else dim_total(self.n, d - 1)

    def block(self, d: int) -> slice:
        """Rank range of the indices of degree exactly d."""
        if d > self.d_max:
            raise ValueError(f"degree {d} exceeds table d_max={self.d_max}")
        return slice(self.offset(d), self.offset(d) + dim_homog(self.n, d))


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
def glex_enumerate(n: int, d_max: int) -> GlexTable:
    """Enumerate all multi-indices with degree <= d_max, Glex-sorted."""
    dim_total(n, d_max)  # validates arguments and the count range
    idx = _glex_indices(n, d_max)
    return GlexTable(n, d_max, tuple(idx), {a: i for i, a in enumerate(idx)})


def glex_rank(*exps) -> np.ndarray:
    """Glex ranks of index sums: the rows of sum(exps), broadcast together.

    Each argument is an integer array whose last axis runs over the
    variables; the sum is never formed.  Closed form of `GlexTable.rank`, so
    no table is needed: with t_i = alpha_i + ... + alpha_n the tail degrees
    (1-based i), rank(alpha) = sum_i C(n - i + t_i, n - i + 1).  Term i
    counts the indices that agree with alpha before position i - 1 and
    precede it there by a larger exponent (term 1: by a lower degree).
    """
    exps = [np.asarray(e) for e in exps]
    n = exps[0].shape[-1]
    shape = np.broadcast_shapes(*(e.shape[:-1] for e in exps))
    tail = np.zeros(shape, dtype=np.int64)
    rank = np.zeros(shape, dtype=np.int64)
    for j in range(n):  # j = n - i: walk the variables from the last one
        for e in exps:
            tail += e[..., n - 1 - j]
        # C(tail + j, j + 1) by a running product: step i turns c = C(x, i)
        # into C(x, i) (x - i) = C(x, i + 1) (i + 1), so each division is exact.
        c = np.ones(shape, dtype=np.int64)
        for i in range(j + 1):
            c = c * (tail + j - i) // (i + 1)
        rank += c
    return rank


def pair_ranks(n: int, d: int, shift=None) -> np.ndarray:
    """Glex ranks of alpha + beta (+ shift) over |alpha|, |beta| <= d, the layout of every
    moment matrix: y[pair_ranks(n, d)] is M_d, and shift e_i gives L_y(x_i x^alpha x^beta)."""
    exps = np.array(glex_enumerate(n, d).indices)
    extra = () if shift is None else (shift,)
    return glex_rank(exps[:, None], exps[None, :], *extra)


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
