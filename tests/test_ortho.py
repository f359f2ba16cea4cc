import itertools
import math

import numpy as np
import pytest

from gausscub.indexing import dim_homog, dim_total, glex_enumerate
from gausscub.measures import moment_matrix
from gausscub.ortho import (
    build_orthobasis,
    eval_monomials,
    eval_P,
)

from conftest import basis_for, catalog
from oracles import ortho_det_oracle, product_coeffs, triple_product

SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)


def test_constant_polynomial_is_one():
    for spec in ("lebesgue", "chebyshev1^2", "symmetrized:0.5"):
        basis = basis_for(spec, 2)
        row0 = basis.coeffs[0]
        assert row0[0] == pytest.approx(1.0)
        assert np.allclose(row0[1:], 0.0)


def test_legendre_like_rows():
    basis = basis_for("lebesgue", 2)
    # P1 = sqrt(3) x, P2 = sqrt(5) (3x^2 - 1)/2  (hand Gram-Schmidt)
    assert basis.coeffs[1] == pytest.approx([0.0, SQ3, 0.0], abs=1e-14)
    assert basis.coeffs[2] == pytest.approx([-SQ5 / 2, 0.0, 1.5 * SQ5], abs=1e-13)


def test_triangular_with_positive_diagonal():
    for spec in ("lebesgue^2", "hermite", "symmetrized:0.5"):
        basis = basis_for(spec, 3)
        s = basis.coeffs
        assert np.allclose(np.triu(s, 1), 0.0)
        assert np.all(np.diag(s) > 0)


@pytest.mark.parametrize(
    "spec_text,d",
    [
        ("lebesgue", 4),
        ("chebyshev1", 4),
        ("chebyshev2", 4),
        ("hermite", 4),
        ("lebesgue^2", 4),
        ("chebyshev1^2", 3),
        ("symmetrized:0.5", 4),
        ("lebesgue^3", 3),
        ("chebyshev2^3", 3),
    ],
)
def test_orthonormality(spec_text, d):
    y = catalog(spec_text, 2 * d)
    basis = build_orthobasis(y, d)
    gram = basis.coeffs @ moment_matrix(y, d) @ basis.coeffs.T
    assert np.abs(gram - np.eye(dim_total(y.n, d))).max() <= 1e-10


def test_det_oracle_matches_cholesky_route():
    for spec_text in ("lebesgue", "lebesgue^2", "chebyshev1^2", "symmetrized:0.5"):
        y = catalog(spec_text, 8)
        for rank, sigma in enumerate(glex_enumerate(y.n, 3).tolist()):
            basis = basis_for(spec_text, max(sum(sigma), 1))
            row = basis.row(sigma)[: rank + 1]
            oracle = ortho_det_oracle(y, sigma)
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(row - oracle).max() <= 1e-9 * scale, sigma


def test_det_oracle_bordered_shape_n2():
    # sigma = (1,1): the bordered matrix is 5x5, so the oracle returns 5 coefficients
    oracle = ortho_det_oracle(catalog("lebesgue^2", 4), (1, 1))
    assert oracle.shape == (5,)
    assert oracle[-1] > 0
    # for the product measure P_(1,1) = P_1(x1) P_1(x2) = 3 x1 x2
    assert oracle == pytest.approx([0, 0, 0, 0, 3.0], abs=1e-12)


def test_det_oracle_constant():
    assert ortho_det_oracle(catalog("lebesgue^2", 2), (0, 0)) == pytest.approx([1.0])


def test_eval_P_block_order_n2():
    basis = basis_for("lebesgue^2", 2)
    pt = np.array([0.3, -0.7])
    vals = eval_P(basis, 2, pt)
    assert vals.shape == (3,)
    # Glex order of the block is P20, P11, P02; check against the rows directly
    mono = eval_monomials(glex_enumerate(2, 2), pt)
    for i, alpha in enumerate([(2, 0), (1, 1), (0, 2)]):
        assert vals[i] == pytest.approx(basis.row(alpha) @ mono)


def test_row_rejects_an_index_outside_the_basis():
    basis = basis_for("lebesgue^2", 2)
    assert np.array_equal(basis.row((0, 2)), basis.coeffs[5])
    for alpha in ((1,), (1, 1, 1), (-1, 2), (2, 1)):
        with pytest.raises(ValueError, match=r"is not an index of degree <= 2 in 2 variables"):
            basis.row(alpha)


def test_eval_P_1d_values():
    basis = basis_for("lebesgue", 2)
    assert eval_P(basis, 2, [0.0]) == pytest.approx([-SQ5 / 2])
    assert eval_P(basis, 0, [0.42]) == pytest.approx([1.0])


@pytest.mark.parametrize("spec_text,m", [("lebesgue", 6), ("symmetrized:0.5", 3)])
def test_eval_P_at_many_points_matches_single_points(spec_text, m):
    basis = basis_for(spec_text, m)
    nodes = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, basis.n))
    vals = eval_P(basis, m, nodes)
    assert vals.shape == (7, dim_homog(basis.n, m))
    stacked = np.stack([eval_P(basis, m, x) for x in nodes])
    assert np.abs(vals - stacked).max() <= 1e-14 * np.abs(stacked).max()
    # loop reference: the block's rows against monomial values, node by node
    block = basis.coeffs[basis.block(m)]
    ref = [block @ [math.prod(xi**ai for xi, ai in zip(x, a)) for a in glex_enumerate(basis.n, basis.d).tolist()] for x in nodes]
    assert np.abs(vals - np.array(ref)).max() <= 1e-14 * np.abs(stacked).max()


def test_triple_product_values(leb1):
    basis = build_orthobasis(leb1, 4)
    assert triple_product(leb1, basis, (0,), (0,), (0,)) == pytest.approx(1.0)
    assert triple_product(leb1, basis, (1,), (1,), (2,)) == pytest.approx(0.4 * SQ5)
    # parity: odd total degree vanishes for an even measure
    assert triple_product(leb1, basis, (1,), (1,), (1,)) == pytest.approx(0.0, abs=1e-14)


def test_triple_product_permutation_symmetry():
    y = catalog("chebyshev1^2", 8)
    basis = build_orthobasis(y, 4)
    idx = [(1, 0), (0, 1), (2, 0)]
    ref = triple_product(y, basis, *idx)
    for perm in itertools.permutations(idx):
        assert triple_product(y, basis, *perm) == pytest.approx(ref, abs=1e-12)


def test_triple_product_degree_guard(leb1):
    basis = build_orthobasis(leb1, 6)
    with pytest.raises(ValueError, match="degree"):
        triple_product(leb1, basis, (5,), (5,), (6,))


def test_product_expansion_completeness():
    # P_gamma P_beta reconstructed from its orthonormal coefficients matches
    # direct evaluation at random points (n=2, m=2)
    y = catalog("lebesgue^2", 8)
    basis = build_orthobasis(y, 4)
    rng = np.random.default_rng(0)
    indices = [tuple(a) for a in glex_enumerate(2, 4).tolist()]
    block = indices[basis.block(2)]
    for gamma in block:
        for beta in block:
            coeffs = {
                theta: triple_product(y, basis, gamma, beta, theta)
                for theta in indices
            }
            for pt in rng.uniform(-1, 1, size=(20, 2)):
                mono = eval_monomials(glex_enumerate(2, 4), pt)
                direct = (basis.row(gamma) @ mono) * (basis.row(beta) @ mono)
                expanded = sum(
                    c * (basis.row(theta) @ mono) for theta, c in coeffs.items()
                )
                assert abs(direct - expanded) <= 1e-9


def test_gram_in_ortho_basis_identity():
    for spec_text in ("lebesgue^2", "symmetrized:0.5"):
        y = catalog(spec_text, 8)
        basis = build_orthobasis(y, 4)
        for d in (0, 2, 4):
            s = basis.coeffs[: dim_total(2, d), : dim_total(2, d)]
            g = s @ moment_matrix(y, d) @ s.T
            assert np.abs(g - np.eye(dim_total(2, d))).max() <= 1e-10


def test_product_coeffs_simple():
    basis = basis_for("lebesgue", 2)
    prod = product_coeffs(basis, (1,), (1,))  # (sqrt(3) x)^2 = 3 x^2
    assert prod[(2,)] == pytest.approx(3.0)
    assert prod.get((0,), 0.0) == pytest.approx(0.0)
