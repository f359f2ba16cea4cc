import math

import numpy as np
import pytest

from gausscub.existence import NoiseFloorError, decide
from gausscub.indexing import dim_homog, dim_total, glex_enumerate
from gausscub.measures import MomentSequence, NotPositiveDefiniteError, moment_matrix, normalize_probability
from gausscub.ortho import build_orthobasis, eval_P

from conftest import GAUSSIAN_GRID, catalog, fuzz_moments
from golub_welsch import gauss_rule
from oracles import (
    full_expansion,
    leading_form_system,
    lstsq_verdict,
    product_expansion,
    top_factor,
    triple_product,
)

SQ5 = math.sqrt(5.0)


def _pairs(block):
    """The degree-m pairs (gamma, beta) in the row order of the oracle's system."""
    return [(block[i], block[j]) for i, j in zip(*np.triu_indices(len(block)))]


def _agree_with_oracle(y, m, v_rel=1e-10):
    """decide and the least-squares oracle give one verdict, and on a YES one v."""
    verdict = decide(y, m)
    exists, v, _ = lstsq_verdict(y, m)
    assert verdict.exists == exists
    if exists:
        assert np.abs(verdict.u - v).max() <= v_rel * np.abs(v).max()
    return verdict


def test_1d_m1_system_and_solution(leb1):
    verdict = decide(leb1, 1)
    assert verdict.exists
    # v = B^T A^-1 B - C = y_1^2 - y_2 = -1/3 moves x^2 onto the one node at 0
    assert verdict.u == pytest.approx([-1.0 / 3.0], abs=1e-15)
    basis = build_orthobasis(leb1, 2)
    assert basis.coeffs[2, 2] * verdict.u == pytest.approx([-SQ5 / 2], abs=1e-12)
    assert verdict.residual <= 1e-14
    # the paper's 1x1 system: entry L_y(P_1 P_1 P_2), solved by the same v
    a0, a2m = leading_form_system(leb1, 1)
    assert a0 == pytest.approx([1.0])
    assert (a2m @ top_factor(leb1, 1))[0, 0] == pytest.approx(0.4 * SQ5)
    _agree_with_oracle(leb1, 1)


def test_a0_is_vectorized_kronecker_delta():
    for spec_text, m in [("lebesgue^2", 2), ("chebyshev1^2", 2), ("symmetrized:0.5", 2), ("lebesgue^3", 1)]:
        y = catalog(spec_text, 2 * m)
        a0, _ = leading_form_system(y, m)
        rm = dim_homog(y.n, m)
        assert np.sum(a0 == 1.0) == rm
        assert np.sum(a0 == 0.0) == rm * (rm + 1) // 2 - rm
        _agree_with_oracle(y, m)


def test_system_shape_n2_m2(leb2):
    a0, a2m = leading_form_system(leb2, 2)
    assert a0.shape == (6,) and a2m.shape == (6, 5)
    verdict = _agree_with_oracle(leb2, 2)
    assert verdict.u.shape == (5,)


def test_row_symmetry_in_pairs():
    # the oracle's row for (gamma, beta) is filled once per unordered pair,
    # and the triple products behind it are symmetric
    y = catalog("chebyshev1^2", 8)
    basis = build_orthobasis(y, 4)
    paper = leading_form_system(y, 2)[1] @ top_factor(y, 2)
    indices = glex_enumerate(2, 4).tolist()
    block = indices[basis.block(4)]
    for row, (gamma, beta) in zip(paper, _pairs(indices[basis.block(2)])):
        recomputed = [triple_product(y, basis, beta, gamma, k) for k in block]
        assert row == pytest.approx(recomputed, abs=1e-12)


@pytest.mark.parametrize("spec_text", ["lebesgue^3", "lebesgue^4"])
def test_assembled_rows_match_loop_oracle(spec_text):
    y = catalog(spec_text, 8)
    basis = build_orthobasis(y, 4)
    indices = glex_enumerate(y.n, 4).tolist()
    block = indices[basis.block(4)]
    pairs = _pairs(indices[basis.block(2)])
    expected = [[triple_product(y, basis, g, b, k) for k in block] for g, b in pairs]
    assert leading_form_system(y, 2)[1] @ top_factor(y, 2) == pytest.approx(np.array(expected), abs=1e-12)
    _agree_with_oracle(y, 2)


@pytest.mark.parametrize(
    "spec_text,m",
    [("lebesgue^2", 4), ("chebyshev1^3", 3), ("lebesgue^3", 3), ("lebesgue^4", 2), ("lebesgue^4", 3)]
    + [("symmetrized:0.5", m) for m in (1, 2, 3, 4)],
)
def test_leading_form_residual_equals_paper_system_residual(spec_text, m):
    # the paper's system, L_y(P_gamma P_beta P_kappa) from a basis to 2m and
    # moments to 4m, gives the Hankel test's verdict, and on a YES its
    # unknown is u = S_top v
    y = catalog(spec_text, 4 * m)
    full = build_orthobasis(y, 2 * m)
    paper = product_expansion(y, full, m)
    a0, a2m = paper[:, 0], paper[:, full.block(2 * m)]
    u = np.linalg.lstsq(a2m, -a0, rcond=1e-10)[0]
    verdict = decide(y, m)
    assert verdict.exists == (np.linalg.norm(a0 + a2m @ u) / np.linalg.norm(a0) <= 1e-8)
    if verdict.exists:
        top = full.block(2 * m)
        assert np.abs(full.coeffs[top, top] @ verdict.u - u).max() <= 1e-10 * np.abs(u).max()


def test_symmetrized_m4_system_is_consistent():
    verdict = decide(catalog("symmetrized:0.5", 8), 4)
    assert verdict.exists
    assert verdict.relative_residual <= 1e-11


@pytest.mark.parametrize("tag", ["lebesgue", "chebyshev1", "chebyshev2", "hermite"])
def test_1d_always_exists_and_u_matches_gauss_rule(tag):
    for m in range(1, 7):
        y = catalog(tag, 4 * m)
        basis = build_orthobasis(y, 2 * m)
        verdict = decide(y, m)
        assert verdict.exists
        assert verdict.relative_residual <= 1e-10
        # u must equal the weighted sum of the top-degree block at the Gauss
        # nodes (independent Golub-Welsch oracle)
        nodes, weights = gauss_rule(tag, m)
        u_oracle = sum(w * eval_P(basis, 2 * m, [x]) for x, w in zip(nodes, weights))
        top = basis.block(2 * m)
        u = basis.coeffs[top, top] @ verdict.u
        assert np.abs(u - u_oracle).max() <= 1e-8 * max(1.0, np.abs(u_oracle).max())


def test_negative_case_n2_product_measures():
    for spec_text in ("lebesgue^2", "chebyshev1^2"):
        verdict = decide(catalog(spec_text, 4), 2)
        assert not verdict.exists
        assert verdict.relative_residual > 1e-2  # bounded away from zero


def test_scale_robustness(leb2):
    u_ref = decide(leb2, 2).u
    for lam in (3.0, 0.125):
        y = normalize_probability(MomentSequence(2, 8, lam * leb2.array, normalized=False))
        assert np.abs(decide(y, 2).u - u_ref).max() <= 1e-12


def test_overdetermination_grows():
    # the oracle's system has t_m = r_m (r_m + 1) / 2 rows and r_2m columns:
    # square at m=1, strictly overdetermined from m=2 on, growing with n and m
    gaps = {}
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            rm = dim_homog(n, m)
            tm, r2m = rm * (rm + 1) // 2, dim_homog(n, 2 * m)
            assert leading_form_system(catalog(f"lebesgue^{n}", 2 * m), m)[1].shape == (tm, r2m)
            gaps[(n, m)] = tm - r2m
    assert all(gaps[(n, 1)] == 0 for n in (2, 3, 4))
    assert gaps[(2, 3)] > gaps[(2, 2)] > 0
    assert gaps[(3, 2)] > gaps[(2, 2)]


def test_assemble_preconditions(leb2):
    with pytest.raises(ValueError, match="degree"):
        decide(leb2, 5)  # needs moments to 10
    with pytest.raises(ValueError, match="m must be"):
        decide(leb2, 0)
    # the test needs no normalization: doubling the moments doubles the shift
    raw = MomentSequence(2, 8, 2.0 * leb2.array, normalized=False)
    assert decide(raw, 1).u == pytest.approx(2.0 * decide(leb2, 1).u, rel=1e-14)


def test_solve_existence_validation(leb1):
    with pytest.raises(ValueError):
        decide(leb1, 1, tol=0.0)
    bad = MomentSequence(1, 2, np.array([1.0, np.nan, 1.0 / 3.0]), normalized=True)
    with pytest.raises(ValueError, match="finite"):
        decide(bad, 1)


def test_full_expansion_slices(leb1):
    basis = build_orthobasis(leb1, 2)
    slices = full_expansion(basis, leb1, (1,), (1,))
    # j=0 slice is the Kronecker delta, the middle slice vanishes by parity,
    # and the top slice is the paper's entry, the oracle's row times L_top
    assert slices[0] == pytest.approx([1.0])
    assert slices[1] == pytest.approx([0.0], abs=1e-14)
    assert slices[2] == pytest.approx([0.4 * SQ5])
    assert slices[2] == pytest.approx(leading_form_system(leb1, 1)[1][0] @ top_factor(leb1, 1))


def test_full_expansion_2d_agrees_with_system():
    y = catalog("symmetrized:0.5", 8)
    basis = build_orthobasis(y, 4)
    a0, a2m = leading_form_system(y, 2)
    paper = a2m @ top_factor(y, 2)
    for row, (gamma, beta) in enumerate(_pairs(glex_enumerate(2, 4).tolist()[basis.block(2)])):
        slices = full_expansion(basis, y, gamma, beta)
        assert slices[0] == pytest.approx(np.atleast_1d(a0[row]), abs=1e-12)
        assert slices[4] == pytest.approx(paper[row], abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_solve_existence_rejects_non_finite_or_non_positive_tol(leb1, tol):
    with pytest.raises(ValueError, match="positive and finite"):
        decide(leb1, 1, tol)


_DECIDE_GRID = [("lebesgue^2", 4), ("chebyshev1^3", 3), ("lebesgue^3", 3), ("lebesgue^4", 2), ("lebesgue^4", 3)]
_DECIDE_GRID += [("symmetrized:0.5", m) for m in range(1, 6)]
# moments supplied to 2m (exists, cubature) and to 4m (qcheck); the floor
# must not depend on the moments the test does not read
_NOISE_CASES = [(s, m, d) for s, m in _DECIDE_GRID for d in (m, 2 * m) if (s, d) != ("symmetrized:0.5", 10)]


@pytest.mark.parametrize("spec_text, m, d", _NOISE_CASES)
def test_noise_floor_is_eps_cond_of_equilibrated_moment_matrix(spec_text, m, d):
    # eps cond(A^) ||C^|| / ||R^|| for M_m = [[A, B], [B^T, C]] scaled to unit
    # diagonal, with cond from eigenvalues and R^ from a dense solve
    y = catalog(spec_text, 2 * d)
    mm = moment_matrix(y, m)
    scale = np.sqrt(np.diag(mm))
    mh = mm / np.outer(scale, scale)
    s1 = dim_total(y.n, m - 1)
    a, b, c = mh[:s1, :s1], mh[:s1, s1:], mh[s1:, s1:]
    eigs = np.linalg.eigvalsh(a)
    r = b.T @ np.linalg.solve(a, b) - c
    expected = np.finfo(float).eps * eigs.max() / eigs.min() * np.linalg.norm(c) / np.linalg.norm(r)
    assert decide(y, m).noise_floor == pytest.approx(expected, rel=1e-9)


def test_no_within_the_noise_floor_raises():
    # symmetrized:0.5 at m = 8: defect 7e-11 under a floor of about 2e-3
    y = catalog("symmetrized:0.5", 16)
    assert decide(y, 8).exists
    with pytest.raises(NoiseFloorError, match="noise floor"):
        decide(y, 8, tol=1e-12)


def test_flat_data_is_never_a_no():
    # moments of s_{m-1} atoms: M_m is singular, M_{m-1} is not, and the rule
    # is the atoms themselves.  Dirac at 0.5 with m = 1: R^ vanishes exactly.
    dirac = MomentSequence(1, 2, np.array([1.0, 0.5, 0.25]), normalized=True)
    verdict = decide(dirac, 1)
    assert verdict.exists and verdict.rank == 0 and verdict.u == pytest.approx([0.0])
    # in 2-D, R^ is rounding noise (5.6e-16 under a rounding level of 3.8e-15):
    # relative to it the defect is no verdict, relative to C^ (norm 2.27) it is a YES
    x = np.array([[0.3, -0.2], [-0.5, 0.6], [0.1, 0.9]])
    exps = glex_enumerate(2, 4)
    y = MomentSequence(2, 4, np.full(3, 1 / 3) @ np.prod(x[:, None, :] ** exps, axis=-1), normalized=True)
    verdict = decide(y, 2)
    assert np.linalg.norm(verdict.schur) <= verdict.rounding
    assert verdict.exists and verdict.rank == 0 and verdict.defect_rank() == 0
    assert verdict.relative_residual <= 1e-15 and verdict.noise_floor < verdict.tol


def test_symmetrized_shift_matches_the_closed_form_rule():
    # the Gaussian rule of symmetrized:0.5 is the Gauss-Chebyshev product rule
    # on m + 1 points pushed to (t1 + t2, t1 t2), with weights (t1 - t2)^2;
    # its degree-2m moments are y_2m + v
    for m in range(2, 8):
        y = catalog("symmetrized:0.5", 2 * m)
        t = np.cos((2 * np.arange(1, m + 2) - 1) * math.pi / (2 * (m + 1)))
        j, k = np.triu_indices(m + 1, 1)
        nodes = np.stack([t[j] + t[k], t[j] * t[k]], axis=1)
        w = (t[j] - t[k]) ** 2 / np.sum((t[j] - t[k]) ** 2)
        exps = glex_enumerate(2, 2 * m)[dim_total(2, 2 * m - 1) :]
        v_rule = w @ np.prod(nodes[:, None, :] ** exps, axis=-1) - y.array[dim_total(2, 2 * m - 1) :]
        assert np.abs(decide(y, m).u - v_rule).max() <= 1e-9 * np.abs(v_rule).max(), m


@pytest.mark.parametrize(
    "spec_text,m",
    _DECIDE_GRID[:5]
    + [("symmetrized:0.5", m) for m in range(1, 6)]
    + [(tag, m) for tag in ("lebesgue", "chebyshev1", "chebyshev2", "hermite") for m in range(1, 9)],
)
def test_verdict_and_shift_agree_with_the_least_squares_oracle(spec_text, m):
    _agree_with_oracle(catalog(spec_text, 2 * m), m)


@pytest.mark.parametrize("m", [6, 7])
def test_symmetrized_verdict_agrees_with_the_least_squares_oracle(m):
    # the oracle's own residual is 6e-10 and 1.7e-9 here, so its v is that
    # far off; test_symmetrized_shift_matches_the_closed_form_rule checks v
    y = catalog("symmetrized:0.5", 2 * m)
    assert decide(y, m).exists
    assert lstsq_verdict(y, m)[0]


_FUZZ = [(n, m, exists) for n in (2, 3, 4) for m in (2, 3, 4) for exists in (True, False)]


@pytest.mark.parametrize("n, m, exists", _FUZZ)
def test_stretched_fuzz_verdicts_match_theory(n, m, exists):
    # stretching x1 by 1e3 is a change of variables: the verdict stays, and
    # so does the equilibrated defect
    for seed in range(3):
        plain = decide(fuzz_moments(n, m, exists, seed), m)
        stretched = decide(fuzz_moments(n, m, exists, seed, stretch=1e3), m)
        assert plain.exists == stretched.exists == exists, seed
        if not exists:
            assert stretched.relative_residual == pytest.approx(plain.relative_residual, rel=1e-6)


@pytest.mark.parametrize("n, m, exists", _FUZZ)
def test_fuzz_verdicts_agree_with_the_least_squares_oracle(n, m, exists):
    for seed in range(3):
        assert _agree_with_oracle(fuzz_moments(n, m, exists, seed), m).exists == exists


@pytest.mark.parametrize("stretch", [1e3, 1e2, 1e1])
def test_stretched_and_rotated_data_is_never_confidently_wrong(stretch):
    # after a rotation the thin direction is no longer a coordinate; the
    # moments in doubles may no longer hold it, which must read as a
    # numerical failure, never as the wrong verdict
    for n, m, exists in _FUZZ:
        for seed in range(2):
            try:
                verdict = decide(fuzz_moments(n, m, exists, seed, stretch=stretch, angle=0.5), m)
            except (NoiseFloorError, NotPositiveDefiniteError):
                continue
            assert verdict.exists == exists, (n, m, exists, seed)



def test_flat_rank_is_s_m_minus_1_on_every_yes():
    # cubature prints flat_rank = s_{m-1} + defect_rank(); the defect, measured at
    # decide's own rounding level, has rank 0 on every YES, also where the rule
    # itself can no longer be built
    yes = set()
    for spec_text, m in GAUSSIAN_GRID:
        try:
            verdict = decide(catalog(spec_text, 2 * m), m)
        except NotPositiveDefiniteError:
            continue
        if verdict.exists:
            assert verdict.defect_rank() == 0, (spec_text, m)
            yes.add((spec_text, m))
    wide = {("symmetrized:0.5", m) for m in (7, 8, 9)}
    wide |= {(f"{w}^1", m) for w in ("lebesgue", "chebyshev1", "chebyshev2", "hermite") for m in range(14, 20)}
    assert wide <= yes
