import math
from fractions import Fraction

import numpy as np
import pytest

from gausscub.cubature import build_rule
from gausscub.existence import decide
from gausscub.measures import moment_matrix
from gausscub.ortho import build_orthobasis
from gausscub.qcheck import build_Q, verify_corollary, verify_remark

from conftest import catalog
from oracles import leading_form_system

SQ5 = math.sqrt(5.0)


def _yes_instance(spec_text, m):
    y = catalog(spec_text, 4 * m)
    basis = build_orthobasis(y, 2 * m)
    verdict = decide(y, m)
    assert verdict.exists
    return y, basis, verdict


def test_build_Q_zero():
    y, basis, _ = _yes_instance("lebesgue", 1)
    q = build_Q(y, basis, np.zeros(1))
    assert np.allclose(q.coeffs, 0.0)


def test_build_Q_1d_m1():
    # u = -sqrt(5)/2 gives Q = -u P_2 = (5/4)(3x^2 - 1)
    y, basis, verdict = _yes_instance("lebesgue", 1)
    q = build_Q(y, basis, verdict.u)
    assert q.coeffs == pytest.approx([-1.25, 0.0, 3.75], abs=1e-12)


def test_build_Q_validation():
    y, basis, _ = _yes_instance("lebesgue", 1)
    with pytest.raises(ValueError):
        build_Q(y, basis, np.zeros(2))


def test_corollary_identity_1d():
    y, basis, verdict = _yes_instance("lebesgue", 1)
    q = build_Q(y, basis, verdict.u)
    # oracle: integral(3x^2 * (5/4)(3x^2-1)) with y2=1/3, y4=1/5 equals 1
    assert (15 / 4) * (3 / 5) - (15 / 4) * (1 / 3) == pytest.approx(1.0)
    assert verify_corollary(basis, q) <= 1e-12


def test_corollary_zero_polynomial_deviates_by_one():
    y, basis, _ = _yes_instance("lebesgue", 1)
    q = build_Q(y, basis, np.zeros(1))
    assert verify_corollary(basis, q) == pytest.approx(1.0)


def test_positive_sign_convention_deviates_by_two():
    # with the literal +u convention the pairing returns -I instead of I
    y, basis, verdict = _yes_instance("lebesgue", 1)
    q_plus = build_Q(y, basis, -verdict.u)
    assert verify_corollary(basis, q_plus) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "spec_text,m",
    [("lebesgue", 1), ("lebesgue", 3), ("chebyshev2", 2), ("hermite", 2), ("symmetrized:0.5", 2), ("symmetrized:0.5", 3)],
)
def test_yes_instances_pass_corollary_and_remark(spec_text, m):
    y, basis, verdict = _yes_instance(spec_text, m)
    q = build_Q(y, basis, verdict.u)
    assert verify_corollary(basis, q) <= 1e-8
    rule = build_rule(y, m)
    remark = verify_remark(basis, q, rule)
    assert remark.u_from_rule <= 1e-8
    assert remark.low_degree <= 1e-8
    assert remark.top_degree <= 1e-8
    assert remark.mean <= 1e-8


def test_remark_1d_m1_single_node():
    y, basis, verdict = _yes_instance("lebesgue", 1)
    rule = build_rule(y, 1)
    # single node at 0, probability weight 1: u = P2(0) = -sqrt(5)/2
    q = build_Q(y, basis, verdict.u)
    remark = verify_remark(basis, q, rule)
    assert remark.u_from_rule <= 1e-12
    assert q.u[0] == pytest.approx(-SQ5 / 2)


def test_corollary_equivalent_to_residual():
    # the corollary deviation and the linear-system residual are the same
    # statement: both vanish together on a YES instance, and both are large
    # when u is perturbed
    y, basis, verdict = _yes_instance("symmetrized:0.5", 2)
    a0, a2m = leading_form_system(y, 2)
    q = build_Q(y, basis, verdict.u)
    dev = verify_corollary(basis, q)
    res = np.abs(a0 + a2m @ verdict.u).max()
    assert dev <= 1e-8 and res <= 1e-8
    u_bad = verdict.u + 0.05
    q_bad = build_Q(y, basis, u_bad)
    dev_bad = verify_corollary(basis, q_bad)
    res_bad = np.abs(a0 + a2m @ u_bad).max()
    assert dev_bad > 1e-3 and res_bad > 1e-3
    assert dev_bad == pytest.approx(res_bad, rel=1e-6)


@pytest.mark.skipif(
    np.finfo(np.longdouble).precision <= 15, reason="long double is float64 on this platform"
)
def test_remark_top_degree_matches_exact_evaluation():
    # the same float H, S and q evaluated exactly: the reported deviation is
    # the certificate's, not rounding noise of the check
    m = 8
    y, basis, verdict = _yes_instance("chebyshev1", m)
    q = build_Q(y, basis, verdict.u)
    remark = verify_remark(basis, q, build_rule(y, m))
    hq = [sum(Fraction(h) * Fraction(c) for h, c in zip(row, q.coeffs)) for row in moment_matrix(y, 2 * m)]
    top = basis.coeffs[basis.block(2 * m)]
    exact = max(
        abs(float(sum(Fraction(s) * h for s, h in zip(row, hq)) - Fraction(-u)))
        for row, u in zip(top, q.u)
    )
    assert exact > 1e-7
    assert remark.top_degree == pytest.approx(exact, rel=0.01)
