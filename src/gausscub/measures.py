"""Moment sequences: measure catalog, moment files, raw moment matrices.

The catalog covers products of classical 1-D weights on [-1, 1] (plus a
Gaussian-type even weight) and a symmetrized 2-D Chebyshev family obtained
by pushing the product Chebyshev weight through (t1, t2) -> (t1+t2, t1*t2)
with an extra (t1 - t2)^2 factor; its moments are dyadic, each rounded once.

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
    MultiIndex,
    dim_total,
    format_multiindex,
    glex_enumerate,
    glex_rank,
    index_rank,
    pair_ranks,
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
    """A catalog entry: the product of n copies of a 1-D weight, or the
    symmetrized 2-D family (name "symmetrized", n = 2), whose only supported
    parameter is alpha = 1/2."""

    name: str  # a 1-D weight tag or "symmetrized"
    n: int

    def __post_init__(self):
        if self.name == "symmetrized":
            if self.n != 2:
                raise ValueError(f"the symmetrized family has n = 2, got {self.n}")
        elif self.name not in ONE_D_WEIGHTS:
            raise ValueError(f"unknown 1-D weight tag {self.name!r}")
        elif self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")

    def __str__(self) -> str:
        return "symmetrized:0.5" if self.name == "symmetrized" else f"{self.name}^{self.n}"

    def box_support(self) -> tuple[float, float] | None:
        """[-1,1]^n when the weight has compact box support, else None."""
        return (-1.0, 1.0) if self.name in _BOX_WEIGHTS else None


_SPEC_RE = re.compile(r"^([a-z0-9]+)(\^(\d+))?$")


def parse_measure_spec(text: str) -> MeasureSpec:
    """Parse the catalog grammar: NAME^n for products, symmetrized:0.5."""
    text = text.strip().lower()
    name, _, param = text.partition(":")
    if name.rstrip() == "symmetrized":
        if param.strip() not in ("0.5", "1/2", "+0.5"):
            raise ValueError(f"unsupported symmetrized parameter {param!r}")
        return MeasureSpec("symmetrized", 2)
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"malformed measure spec {text!r}")
    return MeasureSpec(m.group(1), int(m.group(3)) if m.group(3) else 1)


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
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "array", np.asarray(self.array, dtype=float))
        if self.array.shape != (dim_total(self.n, self.d_max),):
            raise ValueError(f"need one moment per index of degree <= {self.d_max}, got {self.array.shape}")

    def value(self, alpha: MultiIndex) -> float:
        return float(self.array[index_rank(alpha, self.n, self.d_max)])

    def vector(self, d: int) -> np.ndarray:
        """The moments of degree <= d: a prefix of the array."""
        if d > self.d_max:
            raise ValueError(f"need moments to degree {d}, have {self.d_max}")
        return self.array[: dim_total(self.n, d)]

    def truncate(self, d: int) -> MomentSequence:
        """The same sequence cut to degrees <= d."""
        return replace(self, d_max=d, array=self.vector(d))


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
        return pi * (comb(k, j) / 2**k)  # int / int first: 2.0**k overflows from k = 1024
    if tag == "chebyshev2":
        return (pi / 2.0) * (comb(k, j) / 4**j) / (j + 1)
    if tag == "hermite":
        return sqrt(2.0 * pi) * _double_factorial(k - 1)
    raise ValueError(f"unknown 1-D weight tag {tag!r}")


def _out_of_range(spec: MeasureSpec, d_max: int, degree: int) -> OverflowError:
    return OverflowError(f"{spec} moments to d_max={d_max} leave the float range from degree {degree}")


def _symmetrized_moments(d_max: int) -> np.ndarray:
    """Probability-normalized moments of the symmetrized 2-D Chebyshev family (alpha = 1/2).

    With t1, t2 i.i.d. under the probability Chebyshev-1 weight, s = t1 + t2 and p = t1 t2,
    M(a, b) = 2^(a+2b) E[s^a p^b] is an integer: M(0, b) = C(b, b/2)^2 (0 for odd b), M(1, b) = 0,
    and E[t f(t)] = E[(1 - t^2) f'(t)] in t1 and t2 gives the exact division
    M(a+1, b) = (8a M(a-1, b) + 2a M(a-1, b+1) + 4b M(a+1, b-1)) / (a+b+1).
    As (t1 - t2)^2 = s^2 - 4p, y_(a,b) = (M(a+2, b) - 4 M(a, b+1)) / 2^(a+2b+2), rounded once.
    """
    top = d_max + 2  # the largest a + b read
    rows = [[comb(b, b // 2) ** 2 if b % 2 == 0 else 0 for b in range(top + 1)], [0] * top]
    for a in range(1, top):  # rows[a + 1] from rows[a - 1]
        prev, row = rows[a - 1], []
        for b in range(top - a):
            row.append((8 * a * prev[b] + 2 * a * prev[b + 1] + (4 * b * row[b - 1] if b else 0)) // (a + b + 1))
        rows.append(row)
    moments = []
    for a, b in glex_enumerate(2, d_max).tolist():
        try:  # int / int is correctly rounded, and raises OverflowError past the float range
            moments.append((rows[a + 2][b] - 4 * rows[a][b + 1]) / 2 ** (a + 2 * b + 2))
        except OverflowError:
            raise _out_of_range(MeasureSpec("symmetrized", 2), d_max, a + b)
    return np.array(moments)


def catalog_moments(spec: MeasureSpec, d_max: int) -> MomentSequence:
    """Closed-form moments, probability-normalized; the symmetrized ones are exact, each rounded once.
    OverflowError names the lowest degree whose moments leave the float range."""
    if spec.name == "symmetrized":
        return MomentSequence(2, d_max, _symmetrized_moments(d_max), normalized=True, scale=pi * pi)
    exps = glex_enumerate(spec.n, d_max)
    m0 = _moment_1d(spec.name, 0)
    one_d = np.empty(d_max + 1)
    for k in range(d_max + 1):  # a product moment is at most the 1-D moment of its degree
        try:
            one_d[k] = _moment_1d(spec.name, k) / m0
        except OverflowError:
            raise _out_of_range(spec, d_max, k)
    array = np.ones(len(exps))
    for i in range(spec.n):
        array *= one_d[exps[:, i]]
    return MomentSequence(spec.n, d_max, array, normalized=True, scale=math.prod([m0] * spec.n))


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
# Text files.  Moment and rule files share one grammar: `key = value` header
# lines, `left : right` records, blank lines and `#` comments.  A header key
# is a word and a header value or a record's right side is one token; a line
# with a `:` is a record.  A moment file:
#
#   n = 2
#   d_max = 4
#   normalized = true
#   scale = 0x1.0p+1
#   "0,0": 0x1.0p+0
#   ...
#
# Values may be decimal or hex-float; hex-floats make round trips bit-exact.

_KEY_RE = re.compile(r"\w+")
_INDEX_RE = re.compile(r'"([0-9,]+)"')


def read_text(path, required) -> tuple[dict[str, str], list[tuple[int, str, str]]]:
    """The header fields and the (lineno, left, right) records of a text file;
    MomentFormatError names a line that fits neither form or a missing `required` field."""
    header: dict[str, str] = {}
    records: list[tuple[int, str, str]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            left, colon, right = line.partition(":")
            if not colon:  # a header line
                left, _, right = line.partition("=")
            left, value = left.rstrip(), right.split()
            if len(value) != 1 or not (colon or _KEY_RE.fullmatch(left)):
                raise MomentFormatError(f"line {lineno}: unparseable line {line!r}")
            if colon:
                records.append((lineno, left, value[0]))
            elif left in header:
                raise MomentFormatError(f"line {lineno}: header field {left!r} given twice")
            else:
                header[left] = value[0]
    for key in required:
        if key not in header:
            raise MomentFormatError(f"missing header field {key!r}")
    return header, records


def format_text(header: dict, records, sep: str) -> str:
    """The text of header fields and (left, right) records joined by `sep`, without the final newline."""
    lines = [f"{key} = {value}" for key, value in header.items()]
    lines += [f"{left}{sep}{right}" for left, right in records]
    return "\n".join(lines)


def parse_value(text: str) -> float:
    """A decimal or hex-float token's value; MomentFormatError for any other token."""
    try:
        # an x can only stand in a hex-float's 0x, after at most one sign: float() rejects any x
        return float.fromhex(text) if "x" in text or "X" in text else float(text)
    except ValueError:
        raise MomentFormatError(f"bad numeric value {text!r}")


def format_moments(seq: MomentSequence) -> str:
    """The moment-file text of a sequence, without the final newline."""
    header = {"n": seq.n, "d_max": seq.d_max, "normalized": str(seq.normalized).lower(), "scale": seq.scale.hex()}
    indices = glex_enumerate(seq.n, seq.d_max).tolist()
    records = [(f'"{format_multiindex(a)}"', v.hex()) for a, v in zip(indices, seq.array.tolist())]
    return format_text(header, records, ": ")


def store_moments(seq: MomentSequence, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_moments(seq) + "\n")


def _moments_by_array(records, n: int, d_max: int) -> np.ndarray | None:
    """The Glex-ordered values of a valid file's records, from one match, one
    int64 parse and one glex_rank call, or None for a file at fault.  Each
    check bounds what the next one sizes: the record count, then the entries."""
    if len(records) != dim_total(n, d_max):
        return None
    _, lefts, rights = zip(*records)
    text = "\n".join(lefts) + "\n"
    # an entry of 20 or more digits is left to the record loop, which int() bounds
    if not re.fullmatch(rf'(?:"[0-9]{{1,19}}(?:,[0-9]{{1,19}}){{{n - 1}}}"\n)*', text):
        return None
    # '"1,0"\n"0,1"\n' -> '1,0,0,1': an entry past the int64 range reads as its maximum
    exps = np.fromstring(text[1:-2].replace('"\n"', ","), sep=",", dtype=np.int64).reshape(-1, n)
    if exps.max() > d_max or exps.sum(axis=1).max() > d_max:
        return None
    array = np.full(len(records), np.nan)
    array[glex_rank(exps)] = list(map(parse_value, rights))
    return array if np.isfinite(array).all() else None  # a repeated index leaves a NaN


def _moments_by_record(records, n: int, d_max: int) -> np.ndarray:
    """The Glex-ordered values of the records, read one at a time: a
    MomentFormatError names the first record at fault, in file order."""
    moments: dict[MultiIndex, float] = {}
    for lineno, left, right in records:
        if (index := _INDEX_RE.fullmatch(left)) is None:
            raise MomentFormatError(f"line {lineno}: a record needs a quoted multi-index, got {left!r}")
        try:
            alpha = parse_multiindex(index[1], n)
        except ValueError as e:
            raise MomentFormatError(f"line {lineno}: {e}")
        if alpha in moments:
            raise MomentFormatError(f"line {lineno}: duplicate multi-index {alpha}")
        if sum(alpha) > d_max:
            raise MomentFormatError(f"line {lineno}: multi-index {alpha} exceeds declared d_max={d_max}")
        try:
            moments[alpha] = parse_value(right)
        except MomentFormatError as e:
            raise MomentFormatError(f"line {lineno}: {e}")
        if not math.isfinite(moments[alpha]):
            raise MomentFormatError(f"line {lineno}: non-finite value for {alpha}")
    # the records are distinct and of degree <= d_max: complete iff there are s_(d_max)
    expected = dim_total(n, d_max)
    if len(moments) != expected:
        raise MomentFormatError(f"incomplete moment file: missing {expected - len(moments)} of {expected} moments")
    return np.array([moments[a] for a in map(tuple, glex_enumerate(n, d_max).tolist())])


def load_moments(path) -> MomentSequence:
    """Read a moment file.  A MomentFormatError names the first record at fault,
    each record checked in turn for its quoted index, a duplicate, its degree,
    its value and a finite value; then the record count.

    A valid file is read as whole arrays; any other file is read again one
    record at a time, which names its fault.  Neither path builds anything
    the size of s_(d_max), or a rank table, before the records fill it.
    """
    header, records = read_text(path, ("n", "d_max", "normalized", "scale"))
    try:
        n = int(header["n"])
        d_max = int(header["d_max"])
    except ValueError:
        raise MomentFormatError("n and d_max must be integers")
    if header["normalized"] not in ("true", "false"):
        raise MomentFormatError("normalized must be true or false")
    normalized = header["normalized"] == "true"
    scale = parse_value(header["scale"])
    try:
        array = _moments_by_array(records, n, d_max)
    except (MomentFormatError, ValueError, OverflowError):  # a bad value, n or d_max
        array = None
    if array is None:
        array = _moments_by_record(records, n, d_max)
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
    return seq.vector(2 * d)[pair_ranks(seq.n, d)]


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
