"""Decide and construct Gaussian cubature rules from moment data."""

from .cubature import (
    CubatureRule,
    DegenerateSpectrumError,
    build_rule,
    commutation_defect,
    extract_nodes,
    load_rule,
    multiplication_operators,
    rejection,
    store_rule,
    verify_exactness,
)
from .existence import NoiseFloorError, Verdict, decide
from .indexing import dim_homog, dim_total, glex_enumerate
from .measures import (
    MeasureSpec,
    MomentFormatError,
    MomentSequence,
    NotPositiveDefiniteError,
    catalog_moments,
    load_moments,
    moment_matrix,
    normalize_probability,
    parse_measure_spec,
    psd_cholesky,
    store_moments,
)
from .ortho import OrthoBasis, build_orthobasis, eval_P
from .qcheck import build_Q, verify_corollary, verify_remark

__all__ = [name for name in dir() if not name.startswith("_")]
