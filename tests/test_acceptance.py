"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import math

import numpy as np
import pytest

from gausscub.cubature import (
    build_rule,
    commutation_defect,
    multiplication_operators,
)
from gausscub.existence import decide
from gausscub.indexing import dim_homog, dim_total, glex_enumerate, glex_rank
from gausscub.measures import load_moments, moment_matrix, store_moments
from gausscub.ortho import build_orthobasis, eval_P
from gausscub.qcheck import build_Q, verify_corollary, verify_remark

from conftest import catalog
from golub_welsch import gauss_rule
from oracles import flat_completion, glex_key, leading_form_system, lstsq_verdict, ortho_det_oracle, top_factor

ONE_D_TAGS = ("lebesgue", "chebyshev1", "chebyshev2", "hermite")


def _criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nacceptance {name}: FAIL")
                raise
            print(f"\nacceptance {name}: PASS")

        return wrapper

    return decorate


def _solve(spec_text, m):
    y = catalog(spec_text, 4 * m)
    basis = build_orthobasis(y, 2 * m)
    verdict = decide(y, m)
    return y, basis, verdict


@_criterion("1 (1-D equivalence with Golub-Welsch)")
def test_criterion_1_one_dimensional_equivalence():
    for tag in ONE_D_TAGS:
        for m in range(1, 7):
            y, basis, verdict = _solve(tag, m)
            assert verdict.exists, (tag, m)
            assert verdict.relative_residual <= 1e-10, (tag, m)
            rule = build_rule(y, m)
            nodes, weights = gauss_rule(tag, m)
            order = np.argsort(rule.nodes.ravel())
            assert np.abs(rule.nodes.ravel()[order] - nodes).max() <= 1e-8, (tag, m)
            assert np.abs(rule.weights[order] / rule.scale - weights).max() <= 1e-8, (tag, m)
    # the frozen probability-Lebesgue m=3 values
    y, basis, _ = _solve("lebesgue", 3)
    rule = build_rule(y, 3)
    assert np.abs(
        np.sort(rule.nodes.ravel()) - [-math.sqrt(0.6), 0.0, math.sqrt(0.6)]
    ).max() <= 1e-12
    assert rule.weights / rule.scale == pytest.approx([5 / 18, 4 / 9, 5 / 18])


@_criterion("2 (1x1 desk-checkable system)")
def test_criterion_2_desk_scale_forward_direction():
    y, basis, verdict = _solve("lebesgue", 1)
    a0, a2m = leading_form_system(y, 1)
    assert a2m.shape == (1, 1)
    # the paper's entry L_y(P_1 P_1 P_2) and unknown u = S_top v, v solving its system
    assert abs((a2m @ top_factor(y, 1))[0, 0] - 0.4 * math.sqrt(5.0)) <= 1e-12
    assert abs(a0[0] + a2m[0, 0] * verdict.u[0]) <= 1e-12
    u = basis.coeffs[2, 2] * verdict.u
    assert abs(u[0] + math.sqrt(5.0) / 2) <= 1e-12
    nodes, weights = gauss_rule("lebesgue", 1)
    u_rule = sum(w * eval_P(basis, 2, [x]) for x, w in zip(nodes, weights))
    assert abs(u[0] - u_rule[0]) <= 1e-12


@_criterion("3 (negative 2-D product cases)")
def test_criterion_3_negative_cases():
    tol = 1e-8
    for spec_text in ("lebesgue^2", "chebyshev1^2"):
        y, basis, verdict = _solve(spec_text, 2)
        assert not verdict.exists, spec_text
        defect = commutation_defect(multiplication_operators(y, basis, 2))
        assert defect > 100 * tol, spec_text
        # both criteria agree on NO
        assert verdict.exists == (defect <= tol)


@_criterion("4 (positive symmetrized 2-D cases)")
def test_criterion_4_positive_cases():
    for m in (2, 3):
        y, basis, verdict = _solve("symmetrized:0.5", m)
        assert verdict.exists, m
        defect = commutation_defect(multiplication_operators(y, basis, m))
        assert defect <= 1e-8, m
        rule = build_rule(y, m)
        assert rule.nodes.shape == (dim_total(2, m - 1), 2)
        assert rule.weights.min() > 0
        for alpha in glex_enumerate(2, 2 * m - 1).tolist():
            approx = float(
                np.sum(rule.weights * np.prod(rule.nodes ** np.array(alpha), axis=1))
            )
            assert abs(approx - y.value(alpha) * y.scale) <= 1e-8, (m, alpha)


@_criterion("5 (certificate polynomial identities)")
def test_criterion_5_certificate_identities():
    yes_instances = [(t, m) for t in ONE_D_TAGS for m in (1, 2, 3)]
    yes_instances += [("symmetrized:0.5", 2), ("symmetrized:0.5", 3)]
    for spec_text, m in yes_instances:
        y, basis, verdict = _solve(spec_text, m)
        assert verdict.exists
        q = build_Q(y, basis, verdict.u)
        assert verify_corollary(basis, q) <= 1e-8, (spec_text, m)
        rule = build_rule(y, m)
        remark = verify_remark(basis, q, rule)
        assert remark.u_from_rule <= 1e-8, (spec_text, m)
        assert remark.low_degree <= 1e-8, (spec_text, m)
        assert remark.mean <= 1e-8, (spec_text, m)


@_criterion("6 (structural invariants)")
def test_criterion_6_structural_invariants(tmp_path):
    # orthonormality across catalog measures
    for spec_text in ("lebesgue", "chebyshev2", "hermite", "lebesgue^2", "symmetrized:0.5", "chebyshev1^3"):
        y = catalog(spec_text, 8)
        basis = build_orthobasis(y, 4)
        gram = basis.coeffs @ moment_matrix(y, 4) @ basis.coeffs.T
        assert np.abs(gram - np.eye(dim_total(y.n, 4))).max() <= 1e-10, spec_text
    # determinant-oracle agreement
    y = catalog("lebesgue^2", 8)
    basis = build_orthobasis(y, 3)
    for rank, sigma in enumerate(glex_enumerate(2, 3).tolist()):
        row = basis.row(sigma)[: rank + 1]
        oracle = ortho_det_oracle(y, sigma)
        assert np.abs(row - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())
    # Glex bijections: the enumeration is strictly Glex-sorted, and the
    # closed-form rank of each row is its position
    for n in (1, 2, 3):
        exps = glex_enumerate(n, 5)
        keys = [glex_key(a) for a in exps.tolist()]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert glex_rank(exps).tolist() == list(range(len(exps)))
    # the paper's system: a0 is the vectorized Kronecker delta, and its
    # verdict and solution are the Hankel test's
    y, _, verdict = _solve("symmetrized:0.5", 2)
    a0, _ = leading_form_system(y, 2)
    rm = dim_homog(2, 2)
    assert sorted(a0) == [0.0] * (rm * (rm + 1) // 2 - rm) + [1.0] * rm
    exists, v, _ = lstsq_verdict(y, 2)
    assert exists and np.abs(v - verdict.u).max() <= 1e-10 * np.abs(v).max()
    # overdetermination for every n >= 2 test case (square at m=1, strictly
    # overdetermined from m=2 on)
    for n in (2, 3, 4):
        assert dim_homog(n, 1) * (dim_homog(n, 1) + 1) // 2 == dim_homog(n, 2)
        for m in (2, 3):
            assert dim_homog(n, m) * (dim_homog(n, m) + 1) // 2 > dim_homog(n, 2 * m)
    # moment-file round trip is bit-exact
    y = catalog("chebyshev1^2", 6)
    path = tmp_path / "m.txt"
    store_moments(y, path)
    back = load_moments(path)
    assert np.array_equal(back.array, y.array) and back.scale == y.scale


@_criterion("7 (flatness path and atomic cross-check)")
def test_criterion_7_flatness_path():
    for spec_text, m in [("lebesgue", 2), ("chebyshev2", 3), ("symmetrized:0.5", 2), ("symmetrized:0.5", 3)]:
        y, basis, verdict = _solve(spec_text, m)
        assert verdict.exists
        # flat = True and flat_rank = s_{m-1}: the defect has no rank above rounding
        assert verdict.defect_rank() == 0, (spec_text, m)
        z = flat_completion(y, verdict.u, m)
        rule = build_rule(y, m)
        w_prob = rule.weights / rule.scale
        for alpha in glex_enumerate(y.n, 2 * m).tolist():
            atom = float(
                np.sum(w_prob * np.prod(rule.nodes ** np.array(alpha), axis=1))
            )
            assert abs(atom - z.value(alpha)) <= 1e-8, (spec_text, m, alpha)
