import math

import numpy as np
import pytest

from gausscub.cubature import (
    MAX_DRAWS,
    DegenerateSpectrumError,
    ExactnessReport,
    MultiplicationOperators,
    build_rule,
    commutation_defect,
    compute_weights,
    extract_nodes,
    load_rule,
    multiplication_operators,
    rejection,
    store_rule,
    verify_exactness,
)
from gausscub.existence import decide
from gausscub.indexing import dim_total, glex_enumerate
from gausscub.measures import MomentFormatError, NotPositiveDefiniteError, moment_matrix
from gausscub.ortho import build_orthobasis

from conftest import GAUSSIAN_GRID, catalog
from golub_welsch import gauss_rule
from oracles import flat_completion

SQ3 = math.sqrt(3.0)


def _solve(spec_text, m):
    y = catalog(spec_text, 4 * m)
    basis = build_orthobasis(y, 2 * m)
    verdict = decide(y, m)
    return y, basis, verdict


def test_complete_moments_1d_m1():
    y, basis, verdict = _solve("lebesgue", 1)
    z = flat_completion(y, verdict.u, 1)
    # the completed sequence is the moment vector of the one-point rule at 0
    assert z.value((0,)) == 1.0
    assert z.value((1,)) == pytest.approx(0.0, abs=1e-14)
    assert z.value((2,)) == pytest.approx(0.0, abs=1e-14)
    assert y.value((2,)) == pytest.approx(1.0 / 3.0)  # original untouched


def _completed_gram(y, basis, v, m):
    """The moment matrix of y's completion by v, in y's orthonormal basis."""
    s = basis.coeffs[: dim_total(y.n, m), : dim_total(y.n, m)]
    return s @ moment_matrix(flat_completion(y, v, m), m) @ s.T


def test_complete_moments_block_structure():
    # the completed gram in the orthonormal basis is identity over degrees
    # <= m-1 with vanishing off-diagonal and degree-m blocks
    y, basis, verdict = _solve("symmetrized:0.5", 2)
    g = _completed_gram(y, basis, verdict.u, 2)
    s1 = dim_total(2, 1)
    assert np.abs(g[:s1, :s1] - np.eye(s1)).max() <= 1e-10
    assert np.abs(g[s1:, :s1]).max() <= 1e-10
    assert np.abs(g[s1:, s1:]).max() <= 1e-8


def test_flatness_yes_instance():
    # flat_rank = s_{m-1} + the defect's rank, which vanishes on a flat completion
    for spec_text, m in [("lebesgue", 1), ("symmetrized:0.5", 2)]:
        _, _, verdict = _solve(spec_text, m)
        assert verdict.defect_rank() == 0


def test_flatness_perturbed_u_fails():
    y, basis, verdict = _solve("lebesgue", 1)
    g = _completed_gram(y, basis, verdict.u + 0.1, 1)
    assert np.abs(g[1:, 1:]).max() > 1e-3


def test_flatness_no_instance_maximally_nonflat(leb2):
    # no shift makes lebesgue^2 flat at m = 2: the defect has full rank r_2,
    # so flat_rank is s_2, the rank of M_2 itself
    verdict = decide(leb2, 2)
    assert not verdict.exists
    assert dim_total(2, 1) + verdict.defect_rank() == dim_total(2, 2)


def test_multiplication_operator_is_jacobi_matrix(leb1):
    basis = build_orthobasis(leb1, 2)
    ops = multiplication_operators(leb1, basis, 2)
    assert np.allclose(ops.matrices[0], [[0.0, 1 / SQ3], [1 / SQ3, 0.0]])


def test_multiplication_operators_symmetric():
    y = catalog("symmetrized:0.5", 8)
    basis = build_orthobasis(y, 4)
    ops = multiplication_operators(y, basis, 3)
    for mat in ops.matrices:
        assert np.abs(mat - mat.T).max() <= 1e-10


def test_multiplication_operators_degree_guard():
    y = catalog("lebesgue^2", 4)
    basis = build_orthobasis(y, 2)
    with pytest.raises(ValueError, match="moments"):
        multiplication_operators(y, basis, 3)


def test_commutation_defect_cases():
    y, basis, _ = _solve("lebesgue", 3)
    assert commutation_defect(multiplication_operators(y, basis, 3)) == 0.0

    y2 = catalog("lebesgue^2", 8)
    b2 = build_orthobasis(y2, 4)
    defect_no = commutation_defect(multiplication_operators(y2, b2, 2))
    assert defect_no > 1e-6  # well above tolerance: no Gaussian cubature

    ys = catalog("symmetrized:0.5", 8)
    bs = build_orthobasis(ys, 4)
    defect_yes = commutation_defect(multiplication_operators(ys, bs, 2))
    assert defect_yes <= 1e-8


@pytest.mark.parametrize("spec_text,m", [("lebesgue^2", 2), ("chebyshev1^2", 2), ("symmetrized:0.5", 2), ("symmetrized:0.5", 3), ("lebesgue", 4), ("hermite", 5)])
def test_oracle_agreement(spec_text, m):
    # the least-squares verdict and the commutation criterion must agree
    y, basis, verdict = _solve(spec_text, m)
    defect = commutation_defect(multiplication_operators(y, basis, m))
    scale = max(1.0, max(np.abs(mat).max() for mat in multiplication_operators(y, basis, m).matrices))
    assert verdict.exists == (defect <= 1e-8 * scale)


def test_extract_nodes_1d():
    y, basis, _ = _solve("lebesgue", 1)
    nodes = extract_nodes(multiplication_operators(y, basis, 1))
    assert np.abs(nodes - [[0.0]]).max() <= 1e-14

    y3, basis3, _ = _solve("lebesgue", 3)
    nodes3 = extract_nodes(multiplication_operators(y3, basis3, 3))
    expected = np.array([[-math.sqrt(0.6)], [0.0], [math.sqrt(0.6)]])
    assert np.abs(nodes3 - expected).max() <= 1e-10


def test_extract_nodes_refuses_noncommuting(leb2):
    basis = build_orthobasis(leb2, 4)
    ops = multiplication_operators(leb2, basis, 2)
    with pytest.raises(DegenerateSpectrumError, match="commute"):
        extract_nodes(ops)


def test_extract_nodes_count_symmetrized():
    y, basis, _ = _solve("symmetrized:0.5", 2)
    nodes = extract_nodes(multiplication_operators(y, basis, 2))
    assert nodes.shape == (3, 2)  # s_1 = C(3,2) = 3


def test_extract_nodes_deterministic():
    y, basis, _ = _solve("symmetrized:0.5", 3)
    ops = multiplication_operators(y, basis, 3)
    a = extract_nodes(ops)
    b = extract_nodes(ops)
    assert np.array_equal(a, b)


def test_degenerate_spectrum_error():
    # identical operators with a repeated eigenvalue can never separate
    from gausscub.cubature import MultiplicationOperators

    mat = np.eye(2)
    ops = MultiplicationOperators(1, 2, (mat,))
    with pytest.raises(DegenerateSpectrumError):
        extract_nodes(ops)


@pytest.mark.parametrize("n, tries", [(1, 1), (2, MAX_DRAWS)])
def test_eigh_calls_before_a_collision_is_final(monkeypatch, n, tries):
    # in 1-D every combination is the operator itself, so a second eigh could not separate it
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    ops = MultiplicationOperators(n, 2, (np.eye(2),) * n)
    with pytest.raises(DegenerateSpectrumError, match="collision"):
        extract_nodes(ops)
    assert len(calls) == tries


def test_weights_1d():
    y, basis, _ = _solve("lebesgue", 1)
    nodes = extract_nodes(multiplication_operators(y, basis, 1))
    weights = compute_weights(y, basis, nodes)
    assert weights == pytest.approx([2.0])  # raw Lebesgue mass

    y3, basis3, _ = _solve("lebesgue", 3)
    nodes3 = extract_nodes(multiplication_operators(y3, basis3, 3))
    weights3 = compute_weights(y3, basis3, nodes3)
    assert weights3 / y3.scale == pytest.approx([5 / 18, 4 / 9, 5 / 18])


def test_weights_sum_to_mass():
    for spec_text, m in [("chebyshev2", 4), ("symmetrized:0.5", 2)]:
        y, basis, _ = _solve(spec_text, m)
        nodes = extract_nodes(multiplication_operators(y, basis, m))
        weights = compute_weights(y, basis, nodes)
        assert weights.sum() == pytest.approx(y.scale, rel=1e-12)
        assert weights.min() > 0


def test_weights_reject_duplicate_nodes():
    y, basis, _ = _solve("lebesgue", 3)
    with pytest.raises(DegenerateSpectrumError):
        compute_weights(y, basis, np.array([[0.1], [0.1], [0.5]]))


def test_verify_exactness_gauss_rule():
    y, basis, _ = _solve("lebesgue", 3)
    rule = build_rule(y, 3, box=(-1.0, 1.0))
    assert rule.report.max_error <= 1e-12
    assert rule.report.node_residual <= 1e-8
    assert rule.report.inside_support is True
    assert rule.weights.sum() == pytest.approx(y.scale)


def test_build_rule_returns_only_accepted_rules():
    refused = []
    for spec_text, m in GAUSSIAN_GRID:
        try:
            rule = build_rule(catalog(spec_text, 2 * m), m)
        except NotPositiveDefiniteError:
            continue  # no basis, so no rule is built
        except DegenerateSpectrumError:
            refused.append((spec_text, m))
            continue
        assert rejection(rule.report, 1e-8) is None, (spec_text, m)
    assert ("hermite^1", 14) not in refused and ("hermite^1", 15) in refused


def test_build_rule_reads_moments_only_to_2m():
    # qcheck holds moments to 4m, cubature to 2m (the benchmark's construct-yes
    # cases): build_rule reads a prefix, so it builds one rule from either
    one_d = [(f"{w}^1", m) for w in ("lebesgue", "chebyshev1", "chebyshev2", "hermite") for m in range(2, 11)]
    for spec_text, m in one_d + [("symmetrized:0.5", 2), ("symmetrized:0.5", 3)]:
        rule, rule_long = build_rule(catalog(spec_text, 2 * m), m), build_rule(catalog(spec_text, 4 * m), m)
        assert np.array_equal(rule.nodes, rule_long.nodes), (spec_text, m)
        assert np.array_equal(rule.weights, rule_long.weights), (spec_text, m)


def test_rejection_names_a_non_positive_weight():
    for w in (0.0, -1e-3):
        assert "non-positive weight" in rejection(ExactnessReport(1e-12, 1e-12, w, None), 1e-8)


def test_1d_pipeline_matches_golub_welsch():
    for tag in ("lebesgue", "chebyshev1", "chebyshev2", "hermite"):
        for m in range(1, 7):
            y, basis, verdict = _solve(tag, m)
            assert verdict.exists
            rule = build_rule(y, m)
            nodes, weights = gauss_rule(tag, m)
            assert np.abs(np.sort(rule.nodes.ravel()) - nodes).max() <= 1e-8
            order = np.argsort(rule.nodes.ravel())
            assert np.abs(rule.weights[order] / rule.scale - weights).max() <= 1e-8


def test_exactness_on_random_polynomials():
    rng = np.random.default_rng(3)
    y, basis, _ = _solve("symmetrized:0.5", 2)
    rule = build_rule(y, 2)
    table = glex_enumerate(2, 3)
    for _ in range(50):
        coeffs = rng.normal(size=len(table))
        integral = sum(c * y.value(a) for c, a in zip(coeffs, table.tolist())) * y.scale
        approx = sum(
            w * sum(c * np.prod(x ** np.array(a)) for c, a in zip(coeffs, table.tolist()))
            for w, x in zip(rule.weights, rule.nodes)
        )
        assert abs(approx - integral) <= 1e-8 * max(1.0, abs(integral))


def test_atomic_measure_reproduces_completed_moments():
    # proof-faithful cross-check: the extracted rule's moments equal the
    # flat extension z through degree 2m
    for spec_text, m in [("lebesgue", 2), ("symmetrized:0.5", 2)]:
        y, basis, verdict = _solve(spec_text, m)
        z = flat_completion(y, verdict.u, m)
        rule = build_rule(y, m)
        w_prob = rule.weights / rule.scale
        for alpha in glex_enumerate(y.n, 2 * m).tolist():
            atom = sum(w * np.prod(x ** np.array(alpha)) for w, x in zip(w_prob, rule.nodes))
            assert abs(atom - z.value(alpha)) <= 1e-8


def test_rule_file_roundtrip(tmp_path):
    y, basis, _ = _solve("symmetrized:0.5", 2)
    rule = build_rule(y, 2)
    path = tmp_path / "rule.txt"
    store_rule(rule, path)
    back = load_rule(path)
    assert back.n == rule.n and back.m == rule.m and back.precision == rule.precision
    assert back.scale == rule.scale
    assert np.array_equal(back.nodes, rule.nodes)
    assert np.array_equal(back.weights, rule.weights)
    report = verify_exactness(back, y, basis)
    assert report.max_error <= 1e-10


def test_rule_file_validation(tmp_path):
    y, basis, _ = _solve("lebesgue", 2)
    rule = build_rule(y, 2)
    path = tmp_path / "rule.txt"
    store_rule(rule, path)
    text = path.read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(text.splitlines()[:-5]))  # drop a node record
    with pytest.raises(MomentFormatError):
        load_rule(bad)
    bad.write_text(text.replace("m = 2", ""))
    with pytest.raises(MomentFormatError):
        load_rule(bad)
