"""Moment sequences: measure catalog, moment files, raw moment matrices.

The catalog covers products of classical 1-D weights on [-1, 1] (plus a
Gaussian-type even weight) and a symmetrized 2-D Chebyshev family obtained
by pushing the product Chebyshev weight through (t1, t2) -> (t1+t2, t1*t2)
with an extra (t1 - t2)^2 factor.

All downstream analysis works on probability-normalized sequences (y_0 = 1);
the original mass is kept in `scale` so cubature weights can be rescaled.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from math import comb, pi, sqrt

import numpy as np

from .indexing import (
    GlexTable,
    MultiIndex,
    dim_total,
    format_multiindex,
    glex_enumerate,
    glex_rank,
    parse_multiindex,
)


class MomentFormatError(Exception):
    """Malformed or incomplete moment/rule file."""


class NotPositiveDefiniteError(Exception):
    """Cholesky pivot fell below tolerance."""

    def __init__(self, pivot_index: int, pivot: float):
        super().__init__(f"matrix not positive definite at pivot {pivot_index} (value {pivot:.3e})")
        self.pivot_index = pivot_index
        self.pivot = pivot


ONE_D_WEIGHTS = ("lebesgue", "chebyshev1", "chebyshev2", "hermite")

# Weights with compact support on [-1, 1]; used for the node-location check.
_BOX_WEIGHTS = ("lebesgue", "chebyshev1", "chebyshev2")

PIVOT_TOL = 1e-10  # smallest accepted equilibrated Cholesky pivot, relative to the largest entry


@dataclass(frozen=True)
class MeasureSpec:
    """A catalog entry (product of 1-D weights or the symmetrized 2-D family,
    whose only supported parameter is alpha = 1/2)."""

    kind: str  # "product-1d" | "symmetrized-2d"
    weights: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == "product-1d":
            if not self.weights:
                raise ValueError("product-1d spec needs at least one weight tag")
            for w in self.weights:
                if w not in ONE_D_WEIGHTS:
                    raise ValueError(f"unknown 1-D weight tag {w!r}")
        elif self.kind != "symmetrized-2d":
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @property
    def n(self) -> int:
        return len(self.weights) if self.kind == "product-1d" else 2

    def box_support(self) -> tuple[float, float] | None:
        """[-1,1]^n when every factor has compact box support, else None."""
        if self.kind == "product-1d" and all(w in _BOX_WEIGHTS for w in self.weights):
            return (-1.0, 1.0)
        return None


_SPEC_RE = re.compile(r"^([a-z0-9]+)(\^(\d+))?$")


def parse_measure_spec(text: str) -> MeasureSpec:
    """Parse the catalog grammar: NAME^n for products, symmetrized:0.5."""
    text = text.strip().lower()
    if text.startswith("symmetrized"):
        _, _, param = text.partition(":")
        if param.strip() not in ("0.5", "1/2", "+0.5"):
            raise ValueError(f"unsupported symmetrized parameter {param!r}")
        return MeasureSpec("symmetrized-2d")
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"malformed measure spec {text!r}")
    name = m.group(1)
    n = int(m.group(3)) if m.group(3) else 1
    if n < 1:
        raise ValueError(f"measure spec {text!r}: dimension must be >= 1")
    return MeasureSpec("product-1d", weights=(name,) * n)


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Values y_alpha for every |alpha| <= d_max, Glex-ordered, with provenance.

    `array[k]` is the moment of the index of Glex rank k, so the moments of
    degree <= d are the prefix of length s_d.
    """

    n: int
    d_max: int
    array: np.ndarray = field(repr=False)
    normalized: bool
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "array", np.asarray(self.array, dtype=float))
        if self.array.shape != (dim_total(self.n, self.d_max),):
            raise ValueError(f"need one moment per index of degree <= {self.d_max}, got {self.array.shape}")

    def value(self, alpha: MultiIndex) -> float:
        return float(self.array[glex_enumerate(self.n, self.d_max).rank(alpha)])

    def vector(self, table: GlexTable) -> np.ndarray:
        """Values laid out by the ranks of `table`: a prefix of the array."""
        if table.d_max > self.d_max:
            raise ValueError(f"need moments to degree {table.d_max}, have {self.d_max}")
        return self.array[: len(table)]

    def truncate(self, d: int) -> MomentSequence:
        """The same sequence cut to degrees <= d."""
        return replace(self, d_max=d, array=self.vector(glex_enumerate(self.n, d)))


def _double_factorial(k: int) -> float:
    return float(math.prod(range(k, 0, -2))) if k > 0 else 1.0


def _moment_1d(tag: str, k: int) -> float:
    """Raw (unnormalized) k-th moment of a catalog 1-D weight."""
    if k % 2 == 1:
        return 0.0  # every catalog weight is even
    j = k // 2
    if tag == "lebesgue":
        return 2.0 / (k + 1)
    if tag == "chebyshev1":
        return pi * comb(k, j) / 2.0**k
    if tag == "chebyshev2":
        return (pi / 2.0) * comb(k, j) / (4.0**j * (j + 1))
    if tag == "hermite":
        return sqrt(2.0 * pi) * _double_factorial(k - 1)
    raise ValueError(f"unknown 1-D weight tag {tag!r}")


def _symmetrized_moments(d_max: int) -> tuple[np.ndarray, float]:
    """Moments of the symmetrized 2-D Chebyshev family (alpha = 1/2).

    y_(a,b) = c * integral over [-1,1]^2 of
        (t1+t2)^a (t1 t2)^b (t1-t2)^2 / sqrt((1-t1^2)(1-t2^2)) dt1 dt2,
    evaluated with a tensor Gauss-Chebyshev rule exact well beyond the
    polynomial degree of the integrand (a + 2b + 2 <= 2*d_max + 2).
    """
    npts = d_max + 4  # 1-D exactness 2*npts - 1 >= 2*d_max + 7
    i = np.arange(1, npts + 1)
    t = np.cos((2 * i - 1) * pi / (2 * npts))
    w = pi / npts
    t1 = t[:, None]
    t2 = t[None, :]
    base = w * w * (t1 - t2) ** 2
    s = t1 + t2
    p = t1 * t2
    base_s = [base * s**a for a in range(d_max + 1)]
    p_pow = [p**b for b in range(d_max + 1)]
    raw = np.array([np.sum(base_s[a] * p_pow[b]) for a, b in glex_enumerate(2, d_max).indices])
    return raw / raw[0], float(raw[0])


def catalog_moments(spec: MeasureSpec, d_max: int) -> MomentSequence:
    """Closed-form (or exactly-quadratured) moments, probability-normalized."""
    if spec.kind == "symmetrized-2d":
        if d_max > 500:
            raise ValueError("d_max too large for the internal quadrature table")
        array, mass = _symmetrized_moments(d_max)
        return MomentSequence(2, d_max, array, normalized=True, scale=mass)
    exps = np.array(glex_enumerate(spec.n, d_max).indices)
    masses = [_moment_1d(w, 0) for w in spec.weights]
    array = np.ones(len(exps))
    for i, (w, m0) in enumerate(zip(spec.weights, masses)):
        array *= np.array([_moment_1d(w, k) / m0 for k in range(d_max + 1)])[exps[:, i]]
    return MomentSequence(spec.n, d_max, array, normalized=True, scale=math.prod(masses))


def normalize_probability(seq: MomentSequence) -> MomentSequence:
    """Rescale so y_0 = 1 exactly; idempotent; the mass accumulates in scale."""
    y0 = float(seq.array[0])
    if y0 <= 0:
        raise ValueError(f"cannot normalize: y_0 = {y0} is not positive")
    if seq.normalized and y0 == 1.0:
        return seq
    array = seq.array / y0
    array[0] = 1.0
    return MomentSequence(seq.n, seq.d_max, array, normalized=True, scale=seq.scale * y0)


# ---------------------------------------------------------------------------
# Moment file format.  A small textual document:
#
#   n = 2
#   d_max = 4
#   normalized = true
#   scale = 0x1.0p+1
#   "0,0": 0x1.0p+0
#   ...
#
# Values may be decimal or hex-float; hex-floats make round trips bit-exact.

_HEADER_RE = re.compile(r"^(\w+)\s*=\s*(\S+)$")
_RECORD_RE = re.compile(r'^"([0-9,]+)"\s*:\s*(\S+)$')


def _parse_value(text: str) -> float:
    try:
        if text.lower().lstrip("+-").startswith("0x"):
            return float.fromhex(text)
        return float(text)
    except ValueError:
        raise MomentFormatError(f"bad numeric value {text!r}")


def format_moments(seq: MomentSequence) -> str:
    """The moment-file text of a sequence, without the final newline."""
    lines = [
        f"n = {seq.n}",
        f"d_max = {seq.d_max}",
        f"normalized = {'true' if seq.normalized else 'false'}",
        f"scale = {seq.scale.hex()}",
    ]
    indices = glex_enumerate(seq.n, seq.d_max).indices
    lines += [f'"{format_multiindex(a)}": {v.hex()}' for a, v in zip(indices, seq.array.tolist())]
    return "\n".join(lines)


def store_moments(seq: MomentSequence, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_moments(seq) + "\n")


def load_moments(path) -> MomentSequence:
    header: dict[str, str] = {}
    records: dict[MultiIndex, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if m := _RECORD_RE.match(line):
                alpha = parse_multiindex(m.group(1))
                if alpha in records:
                    raise MomentFormatError(f"line {lineno}: duplicate multi-index {alpha}")
                records[alpha] = _parse_value(m.group(2))
            elif m := _HEADER_RE.match(line):
                header[m.group(1)] = m.group(2)
            else:
                raise MomentFormatError(f"line {lineno}: unparseable line {line!r}")
    for key in ("n", "d_max", "normalized", "scale"):
        if key not in header:
            raise MomentFormatError(f"missing header field {key!r}")
    try:
        n = int(header["n"])
        d_max = int(header["d_max"])
    except ValueError:
        raise MomentFormatError("n and d_max must be integers")
    if header["normalized"] not in ("true", "false"):
        raise MomentFormatError("normalized must be true or false")
    normalized = header["normalized"] == "true"
    scale = _parse_value(header["scale"])
    for alpha, v in records.items():
        if len(alpha) != n:
            raise MomentFormatError(f"multi-index {alpha} has dimension {len(alpha)}, expected {n}")
        if sum(alpha) > d_max:
            raise MomentFormatError(f"multi-index {alpha} exceeds declared d_max={d_max}")
        if not math.isfinite(v):
            raise MomentFormatError(f"non-finite value for {alpha}")
    try:
        array = np.array([records[a] for a in glex_enumerate(n, d_max).indices])
    except KeyError as e:
        raise MomentFormatError(f"incomplete moment file: missing {format_multiindex(e.args[0])}")
    if normalized and array[0] != 1.0:
        raise MomentFormatError("file declares normalized = true but y_0 != 1")
    try:
        return MomentSequence(n, d_max, array, normalized=normalized, scale=scale)
    except ValueError as e:
        raise MomentFormatError(str(e))


# ---------------------------------------------------------------------------
# Raw moment matrices.


def moment_matrix(seq: MomentSequence, d: int) -> np.ndarray:
    """Symmetric s_d x s_d matrix with entry (alpha, beta) = y_{alpha+beta}, Glex layout."""
    exps = np.array(glex_enumerate(seq.n, d).indices)
    return seq.vector(glex_enumerate(seq.n, 2 * d))[glex_rank(exps[:, None], exps[None, :])]


def psd_cholesky(mat) -> np.ndarray:
    """Cholesky factor L with M = L L^T, or NotPositiveDefiniteError.

    The matrix is diagonally equilibrated before the pivot test so that the
    tolerance is meaningful for measures whose moments span many orders of
    magnitude; the returned factor is for the original matrix.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("psd_cholesky needs a square matrix")
    amax = np.abs(a).max() if a.size else 1.0
    if np.abs(a - a.T).max() > 1e-12 * max(1.0, amax):
        raise ValueError("matrix is not symmetric")
    k = a.shape[0]
    diag = np.diag(a).copy()
    d = np.sqrt(np.where(diag > 0, diag, 1.0))
    ah = a / np.outer(d, d)
    thresh = PIVOT_TOL * max(1.0, np.abs(ah).max())
    low = np.zeros_like(ah)
    for j in range(k):
        pivot = ah[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > thresh:
            raise NotPositiveDefiniteError(j, float(pivot))
        ljj = math.sqrt(pivot)
        low[j, j] = ljj
        if j + 1 < k:
            low[j + 1 :, j] = (ah[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / ljj
    return low * d[:, None]
