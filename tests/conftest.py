import math
from functools import lru_cache

import numpy as np
import pytest

from gausscub.indexing import dim_total, glex_enumerate
from gausscub.measures import MomentSequence, catalog_moments, normalize_probability, parse_measure_spec
from gausscub.ortho import build_orthobasis


# Measures with a Gaussian rule at every level m: the four 1-D weights to m = 20
# and the symmetrized measure to m = 10, past where building each rule breaks down
GAUSSIAN_GRID = [(f"{w}^1", m) for w in ("lebesgue", "chebyshev1", "chebyshev2", "hermite") for m in range(2, 21)]
GAUSSIAN_GRID += [("symmetrized:0.5", m) for m in range(2, 11)]


@lru_cache(maxsize=None)
def catalog(spec_text: str, d_max: int):
    return catalog_moments(parse_measure_spec(spec_text), d_max)


@lru_cache(maxsize=None)
def basis_for(spec_text: str, d: int):
    return build_orthobasis(catalog(spec_text, 2 * d), d)


def fuzz_moments(n, m, exists, seed, stretch=1.0, angle=0.0):
    """Moments to degree 2m of random data whose Gaussian-cubature verdict is known.

    YES data: s_{m-1} random atoms plus a positive definite degree-2m shift,
    the top moments of 400 uniform points, so that M_m is positive definite
    and the flat completion takes the shift off again.  NO data: s_m + 3
    random atoms.  x1 is then stretched by `stretch` and (x1, x2) rotated by
    `angle`: linear changes of variables, which keep the verdict.
    """
    rng = np.random.default_rng(seed)
    k = dim_total(n, m - 1) if exists else dim_total(n, m) + 3
    x = rng.uniform(-1.0, 1.0, (k, n))
    w = rng.uniform(0.5, 1.5, k)
    pts = rng.uniform(-1.0, 1.0, (400, n))
    lin = np.eye(n)
    lin[0, 0] = stretch
    c, s = math.cos(angle), math.sin(angle)
    lin[:2] = [[c, -s], [s, c]] @ lin[:2]
    x, pts = x @ lin.T, pts @ lin.T
    exps = glex_enumerate(n, 2 * m)
    y = w @ np.prod(x[:, None, :] ** exps, axis=-1)
    if exists:
        top = dim_total(n, 2 * m - 1)
        y[top:] += np.prod(pts[:, None, :] ** exps[top:], axis=-1).mean(axis=0)
    return normalize_probability(MomentSequence(n, 2 * m, y, normalized=False))


@pytest.fixture
def leb1():
    return catalog("lebesgue", 12)


@pytest.fixture
def leb2():
    return catalog("lebesgue^2", 8)
