import dataclasses
import math

import numpy as np
import pytest

from gausscub.existence import assemble_system, solve_existence
from gausscub.indexing import dim_homog, pair_count
from gausscub.measures import MomentSequence, moment_matrix, normalize_probability
from gausscub.ortho import build_orthobasis, eval_P

from conftest import catalog
from golub_welsch import gauss_rule
from oracles import full_expansion, product_expansion, top_factor, triple_product

SQ5 = math.sqrt(5.0)


def test_1d_m1_system_and_solution(leb1):
    basis = build_orthobasis(leb1, 2)
    system = assemble_system(leb1, basis, 1)
    assert system.shape == (1, 1)
    assert system.a0 == pytest.approx([1.0])
    assert (system.A2m @ top_factor(leb1, 1))[0, 0] == pytest.approx(0.4 * SQ5)
    verdict = solve_existence(system)
    assert verdict.exists
    assert basis.coeffs[2, 2] * verdict.u == pytest.approx([-SQ5 / 2], abs=1e-12)
    assert verdict.residual <= 1e-14


def test_a0_is_vectorized_kronecker_delta():
    for spec_text, m in [("lebesgue^2", 2), ("chebyshev1^2", 2), ("symmetrized:0.5", 2), ("lebesgue^3", 1)]:
        y = catalog(spec_text, 4 * m)
        basis = build_orthobasis(y, 2 * m)
        system = assemble_system(y, basis, m)
        rm = dim_homog(y.n, m)
        assert np.sum(system.a0 == 1.0) == rm
        assert np.sum(system.a0 == 0.0) == pair_count(y.n, m) - rm
        assert np.linalg.norm(system.a0) == pytest.approx(math.sqrt(rm))


def test_system_shape_n2_m2(leb2):
    basis = build_orthobasis(leb2, 4)
    assert assemble_system(leb2, basis, 2).shape == (6, 5)


def test_row_symmetry_in_pairs():
    # the row for (gamma, beta) is filled once per unordered pair, and the
    # triple products behind it are symmetric; spot-check via full recompute
    y = catalog("chebyshev1^2", 8)
    basis = build_orthobasis(y, 4)
    system = assemble_system(y, basis, 2)
    from gausscub.indexing import pair_rank

    paper = system.A2m @ top_factor(y, 2)
    for gamma, beta in system.pairs:
        row = paper[pair_rank(beta, gamma, 2)]
        block = basis.table.indices[basis.block(4)]
        recomputed = [triple_product(y, basis, beta, gamma, k) for k in block]
        assert row == pytest.approx(recomputed, abs=1e-12)


@pytest.mark.parametrize("spec_text", ["lebesgue^3", "lebesgue^4"])
def test_assembled_rows_match_loop_oracle(spec_text):
    y = catalog(spec_text, 8)
    basis = build_orthobasis(y, 4)
    system = assemble_system(y, basis, 2)
    block = basis.table.indices[basis.block(4)]
    expected = [[triple_product(y, basis, g, b, k) for k in block] for g, b in system.pairs]
    assert system.A2m @ top_factor(y, 2) == pytest.approx(np.array(expected), abs=1e-12)


@pytest.mark.parametrize(
    "spec_text,m",
    [("lebesgue^2", 4), ("chebyshev1^3", 3), ("lebesgue^3", 3), ("lebesgue^4", 2), ("lebesgue^4", 3)]
    + [("symmetrized:0.5", m) for m in (1, 2, 3, 4)],
)
def test_leading_form_residual_equals_paper_system_residual(spec_text, m):
    # the paper's A2m, L_y(P_gamma P_beta P_kappa) from a basis to 2m, is the
    # assembled one times the invertible L_top: same range, same residual
    y = catalog(spec_text, 4 * m)
    system = assemble_system(y, build_orthobasis(y, m), m)
    full = build_orthobasis(y, 2 * m)
    paper = dataclasses.replace(system, A2m=product_expansion(y, full, m)[:, full.block(2 * m)])
    rel = solve_existence(system).relative_residual
    assert rel == pytest.approx(solve_existence(paper).relative_residual, abs=1e-12)


def test_symmetrized_m4_system_is_consistent():
    # the kernel keeps the YES residual far below tol = 1e-8 at m = 4
    y = catalog("symmetrized:0.5", 16)
    verdict = solve_existence(assemble_system(y, build_orthobasis(y, 8), 4))
    assert verdict.exists
    assert verdict.relative_residual <= 1e-11


@pytest.mark.parametrize("tag", ["lebesgue", "chebyshev1", "chebyshev2", "hermite"])
def test_1d_always_exists_and_u_matches_gauss_rule(tag):
    for m in range(1, 7):
        y = catalog(tag, 4 * m)
        basis = build_orthobasis(y, 2 * m)
        verdict = solve_existence(assemble_system(y, basis, m))
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
        y = catalog(spec_text, 8)
        basis = build_orthobasis(y, 4)
        verdict = solve_existence(assemble_system(y, basis, 2))
        assert not verdict.exists
        assert verdict.relative_residual > 1e-2  # bounded away from zero


def test_scale_robustness(leb2):
    basis = build_orthobasis(leb2, 4)
    u_ref = solve_existence(assemble_system(leb2, basis, 2)).u
    for lam in (3.0, 0.125):
        scaled = MomentSequence(2, 8, lam * leb2.array, normalized=False)
        y = normalize_probability(scaled)
        basis2 = build_orthobasis(y, 4)
        u = solve_existence(assemble_system(y, basis2, 2)).u
        assert np.abs(u - u_ref).max() <= 1e-12


def test_overdetermination_grows():
    # at m=1 the system is square (t_1 = r_2 = n(n+1)/2); strict
    # overdetermination kicks in from m=2 and grows with n and m
    for n in (2, 3, 4):
        assert pair_count(n, 1) == dim_homog(n, 2)
    gaps = {}
    for n in (2, 3):
        for m in (2, 3):
            tm, r2m = pair_count(n, m), dim_homog(n, 2 * m)
            assert tm > r2m
            gaps[(n, m)] = tm - r2m
    assert gaps[(2, 3)] > gaps[(2, 2)]
    assert gaps[(3, 2)] > gaps[(2, 2)]


def test_assemble_preconditions(leb2):
    basis = build_orthobasis(leb2, 4)
    with pytest.raises(ValueError, match="degree"):
        assemble_system(leb2, basis, 5)  # needs moments to 10
    raw = MomentSequence(2, 8, leb2.array.copy(), normalized=False)
    with pytest.raises(ValueError, match="normalized"):
        assemble_system(raw, basis, 2)
    with pytest.raises(ValueError, match="basis"):
        assemble_system(leb2, build_orthobasis(leb2, 1), 2)


def test_solve_existence_validation(leb1):
    basis = build_orthobasis(leb1, 2)
    system = assemble_system(leb1, basis, 1)
    with pytest.raises(ValueError):
        solve_existence(system, tol=0.0)
    bad = type(system)(1, 1, np.array([np.nan]), system.A2m, system.pairs)
    with pytest.raises(ValueError, match="finite"):
        solve_existence(bad)


def test_full_expansion_slices(leb1):
    basis = build_orthobasis(leb1, 2)
    slices = full_expansion(basis, leb1, (1,), (1,))
    # j=0 slice is the Kronecker delta, the middle slice vanishes by parity,
    # and the top slice matches the assembled system row
    assert slices[0] == pytest.approx([1.0])
    assert slices[1] == pytest.approx([0.0], abs=1e-14)
    assert slices[2] == pytest.approx([0.4 * SQ5])
    system = assemble_system(leb1, basis, 1)
    assert slices[2] == pytest.approx(system.A2m[0] @ top_factor(leb1, 1))


def test_full_expansion_2d_agrees_with_system():
    y = catalog("symmetrized:0.5", 8)
    basis = build_orthobasis(y, 4)
    system = assemble_system(y, basis, 2)
    paper = system.A2m @ top_factor(y, 2)
    from gausscub.indexing import pair_rank

    for gamma, beta in system.pairs:
        slices = full_expansion(basis, y, gamma, beta)
        row = pair_rank(gamma, beta, 2)
        assert slices[0] == pytest.approx(
            np.atleast_1d(system.a0[row]), abs=1e-12
        )
        assert slices[4] == pytest.approx(paper[row], abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_solve_existence_rejects_non_finite_or_non_positive_tol(leb1, tol):
    system = assemble_system(leb1, build_orthobasis(leb1, 1), 1)
    with pytest.raises(ValueError, match="positive and finite"):
        solve_existence(system, tol)


_DECIDE_GRID = [("lebesgue^2", 4), ("chebyshev1^3", 3), ("lebesgue^3", 3), ("lebesgue^4", 2), ("lebesgue^4", 3)]
_DECIDE_GRID += [("symmetrized:0.5", m) for m in range(1, 6)]
# bases built to m (exists, cubature) and to 2m (qcheck); M_10 of the
# symmetrized measure is not numerically positive definite, so no basis to 10
_NOISE_CASES = [(s, m, d) for s, m in _DECIDE_GRID for d in (m, 2 * m) if (s, d) != ("symmetrized:0.5", 10)]


@pytest.mark.parametrize("spec_text, m, d", _NOISE_CASES)
def test_noise_floor_is_eps_cond_of_equilibrated_moment_matrix(spec_text, m, d):
    y = catalog(spec_text, 2 * d)
    system = assemble_system(y, build_orthobasis(y, d), m)
    mm = moment_matrix(y, m)
    d = np.sqrt(np.diag(mm))
    expected = np.finfo(float).eps * np.linalg.cond(mm / np.outer(d, d))
    assert system.noise_floor == pytest.approx(expected, rel=1e-9)
