import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausscub import measures
from gausscub.cubature import CubatureRule, load_rule, store_rule
from gausscub.indexing import format_multiindex, glex_enumerate
from gausscub.measures import (
    MeasureSpec,
    MomentFormatError,
    MomentSequence,
    NotPositiveDefiniteError,
    catalog_moments,
    format_text,
    load_moments,
    moment_matrix,
    normalize_probability,
    parse_measure_spec,
    psd_cholesky,
    read_text,
    store_moments,
)

from conftest import catalog
from oracles import load_moments_by_record, symmetrized_moments_by_sum


def test_parse_measure_spec():
    assert parse_measure_spec("lebesgue^2") == MeasureSpec("lebesgue", 2)
    assert parse_measure_spec("chebyshev1").n == 1
    assert parse_measure_spec("symmetrized:0.5") == MeasureSpec("symmetrized", 2)
    for bad in ("bogus^2", "lebesgue^0", "symmetrized:1.0", "symmetrizedxyz:0.5", "symmetrized", ""):
        with pytest.raises(ValueError):
            parse_measure_spec(bad)


def test_box_support():
    assert parse_measure_spec("chebyshev2^3").box_support() == (-1.0, 1.0)
    assert parse_measure_spec("hermite^2").box_support() is None
    assert parse_measure_spec("symmetrized:0.5").box_support() is None


def test_lebesgue_1d_moments():
    y = catalog("lebesgue", 8)
    for k in range(9):
        expected = 1.0 / (k + 1) if k % 2 == 0 else 0.0
        assert y.value((k,)) == pytest.approx(expected, abs=1e-15)
    assert y.normalized and y.scale == pytest.approx(2.0)


def test_chebyshev_and_hermite_masses():
    assert catalog("chebyshev1", 2).scale == pytest.approx(math.pi)
    assert catalog("chebyshev2", 2).scale == pytest.approx(math.pi / 2)
    assert catalog("hermite", 2).scale == pytest.approx(math.sqrt(2 * math.pi))
    # quadrature oracle for the chebyshev moments
    t = np.cos((2 * np.arange(1, 41) - 1) * np.pi / 80)
    y1 = catalog("chebyshev1", 6)
    assert y1.value((6,)) == pytest.approx(np.mean(t**6), rel=1e-13)
    assert catalog("hermite", 8).value((8,)) == pytest.approx(105.0)  # 7!!


def test_product_measures_factorize():
    y = catalog("lebesgue^2", 8)
    for a in range(4):
        for b in range(4):
            assert y.value((a, b)) == pytest.approx(y.value((a, 0)) * y.value((0, b)), abs=1e-15)
    assert y.value((2, 2)) == pytest.approx(y.value((2, 0)) * y.value((0, 2)))


@pytest.mark.parametrize("spec_text,d_max", [("lebesgue^3", 10), ("chebyshev1^3", 10), ("hermite^2", 12)])
def test_product_moments_are_products_of_1d_moments_bit_for_bit(spec_text, d_max):
    y = catalog(spec_text, d_max)
    y1 = catalog(spec_text.split("^")[0], d_max)
    for alpha in glex_enumerate(y.n, d_max).tolist():
        assert y.value(alpha) == math.prod(y1.value((a,)) for a in alpha), alpha


@pytest.mark.parametrize("weight", ["chebyshev1", "chebyshev2"])
def test_chebyshev_moments_keep_their_bits_and_stay_in_range(weight):
    # dividing in integers first rounds as the old float quotients did, as long as those were finite
    old = {
        "chebyshev1": lambda k, j: math.pi * math.comb(k, j) / 2.0**k,
        "chebyshev2": lambda k, j: (math.pi / 2.0) * math.comb(k, j) / (4.0**j * (j + 1)),
    }[weight]
    for k in range(0, 1015, 2):
        assert measures._moment_1d(weight, k) == old(k, k // 2), k
    # the old chebyshev2 denominator is inf from degree 1016, and 2.0**k overflows from 1024
    y = catalog(weight, 2000).array
    assert np.all((y[::2] > 0) & (y[::2] <= 1)) and not y[1::2].any()


def test_symmetrized_moments_symmetry():
    y = catalog("symmetrized:0.5", 6)
    assert y.value((0, 0)) == 1.0
    # (t1,t2) -> (-t1,-t2) flips the sign of t1+t2 only: odd a moments vanish exactly
    for a, b in glex_enumerate(2, 6).tolist():
        if a % 2 == 1:
            assert y.value((a, b)) == 0.0, (a, b)


@pytest.mark.parametrize("d_max", range(25))
def test_symmetrized_moments_are_the_correctly_rounded_binomial_sums(d_max):
    assert np.array_equal(catalog("symmetrized:0.5", d_max).array, symmetrized_moments_by_sum(d_max))


def test_symmetrized_moments_match_a_denser_quadrature():
    # Gauss-Chebyshev with 40 points per variable is exact for these degrees
    t = np.cos((2 * np.arange(1, 41) - 1) * math.pi / 80)
    t1, t2 = t[:, None], t[None, :]
    weight = (t1 - t2) ** 2
    expected = [np.sum(weight * (t1 + t2) ** a * (t1 * t2) ** b) for a, b in glex_enumerate(2, 12).tolist()]
    got = catalog("symmetrized:0.5", 12).array
    assert got == pytest.approx(np.array(expected) / expected[0], rel=1e-12, abs=1e-13)


def test_symmetrized_mass():
    # raw mass = 2 * integral(t^2) * pi = pi^2 by expanding (t1 - t2)^2
    assert catalog("symmetrized:0.5", 4).scale == math.pi**2


@pytest.mark.parametrize("spec_text", [f"{w}^{n}" for w in measures.ONE_D_WEIGHTS for n in (1, 2, 3)] + ["symmetrized:0.5"])
def test_catalog_is_a_prefix(spec_text):
    # the moments to degree d do not depend on the degree D they are taken to
    spec, top = parse_measure_spec(spec_text), 10
    long = catalog_moments(spec, top)
    for d in range(top):
        short = catalog_moments(spec, d)
        assert np.array_equal(short.array, long.array[: len(short.array)]), d
        assert short.scale == long.scale, d


def test_normalize_probability():
    y = catalog("lebesgue", 4)
    raw = MomentSequence(1, 4, 2.0 * y.array, normalized=False, scale=1.0)
    norm = normalize_probability(raw)
    assert norm.value((0,)) == 1.0
    assert norm.scale == pytest.approx(2.0)
    assert normalize_probability(norm) is norm  # idempotent
    degenerate = np.zeros_like(raw.array)
    with pytest.raises(ValueError):
        normalize_probability(MomentSequence(1, 4, degenerate, normalized=False))


def test_moment_sequence_completeness_enforced():
    with pytest.raises(ValueError):
        MomentSequence(2, 1, np.array([1.0, 0.0]), normalized=True)


def test_moment_file_roundtrip(tmp_path):
    y = catalog("lebesgue^2", 4)
    path = tmp_path / "m.txt"
    store_moments(y, path)
    back = load_moments(path)
    assert back.n == y.n and back.d_max == y.d_max
    assert back.normalized == y.normalized
    assert back.scale == y.scale
    assert np.array_equal(back.array, y.array)  # bit-exact


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=6, max_size=6
    )
)
def test_moment_file_roundtrip_arbitrary_floats(tmp_path_factory, vals):
    values = np.array(vals)
    values[0] = 1.0  # y_(0,0)
    seq = MomentSequence(2, 2, values, normalized=True, scale=1.0)
    path = tmp_path_factory.mktemp("mom") / "m.txt"
    store_moments(seq, path)
    assert np.array_equal(load_moments(path).array, seq.array)


def test_moment_file_records_load_in_any_order(tmp_path):
    y = catalog("chebyshev1^2", 6)
    path = tmp_path / "m.txt"
    store_moments(y, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + lines[:3:-1]) + "\n")
    assert lines[4].startswith('"0,0"') and path.read_text().splitlines()[4].startswith('"0,6"')
    assert np.array_equal(load_moments(path).array, y.array)


def test_value_rejects_an_index_outside_the_sequence():
    y = catalog("lebesgue^2", 4)
    assert y.value((1, 3)) == y.array[13]
    for alpha in ((1,), (1, 1, 1), (-1, 2), (3, 2)):
        with pytest.raises(ValueError, match=r"is not an index of degree <= 4 in 2 variables"):
            y.value(alpha)


def test_moment_file_validation(tmp_path):
    y = catalog("lebesgue^2", 2)
    path = tmp_path / "m.txt"
    store_moments(y, path)
    text = path.read_text()

    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(l for l in text.splitlines() if not l.startswith('"0,1"')))
    with pytest.raises(MomentFormatError, match="missing"):
        load_moments(bad)

    bad.write_text(text + '"1,1": 0x1.0p+0\n')
    with pytest.raises(MomentFormatError, match="duplicate"):
        load_moments(bad)

    bad.write_text(text.replace('"1,1"', '"1,1,1"'))
    with pytest.raises(MomentFormatError):
        load_moments(bad)

    bad.write_text(text.replace("0x0.0p+0", "nan", 1))
    with pytest.raises(MomentFormatError, match="non-finite"):
        load_moments(bad)

    bad.write_text(text.replace("n = 2\n", ""))
    with pytest.raises(MomentFormatError, match="missing header"):
        load_moments(bad)


def test_incomplete_moment_file_is_rejected_before_its_table_is_built(tmp_path, monkeypatch):
    # one record of the 176 851 that n = 3, d_max = 100 declares: counting the
    # records rejects the file without enumerating the Glex table to degree 100
    def enumerate_small(n, d_max):
        assert d_max < 100, "built the declared table of an incomplete file"
        return glex_enumerate(n, d_max)

    monkeypatch.setattr(measures, "glex_enumerate", enumerate_small)
    path = tmp_path / "m.txt"
    path.write_text('n = 3\nd_max = 100\nnormalized = true\nscale = 1\n"0,0,0": 1\n')
    with pytest.raises(MomentFormatError, match="missing"):
        load_moments(path)



# one fault each; every one of them is a file both loaders must reject
_FAULTS = ("drop", "duplicate", "short", "long", "empty", "deep", "nan", "inf", "junk", "huge", "past-int64")


@st.composite
def _moment_files(draw):
    """The text of a moment file with n = 1..3 and d_max <= 6, records shuffled and
    values in hex or decimal, and whether it carries one of the _FAULTS."""
    n, d_max = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    indices = glex_enumerate(n, d_max).tolist()
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(indices), max_size=len(indices)))
    normalized = draw(st.booleans())
    if normalized:
        values[0] = 1.0
    hexes = draw(st.lists(st.booleans(), min_size=len(indices), max_size=len(indices)))
    records = [[list(a), v.hex() if h else repr(v)] for a, v, h in zip(indices, values, hexes)]
    records = draw(st.permutations(records))
    fault = draw(st.sampled_from((None,) + _FAULTS))
    k = draw(st.integers(0, len(records) - 1))
    alpha = records[k][0]
    if fault == "drop":
        del records[k]
    elif fault == "duplicate":
        records.insert(draw(st.integers(0, len(records))), records[k])
    elif fault == "short":
        records[k] = [alpha[:-1], records[k][1]]
    elif fault == "long":
        records[k] = [alpha + [0], records[k][1]]
    elif fault == "deep":
        records[k] = [[d_max + 1] + [0] * (n - 1), records[k][1]]
    elif fault in ("huge", "past-int64"):
        records[k] = [[99999999 if fault == "huge" else 10**23] + [0] * (n - 1), records[k][1]]
    elif fault in ("nan", "inf", "junk"):
        records[k] = [alpha, {"nan": "nan", "inf": draw(st.sampled_from(["inf", "-inf", "1e999"])), "junk": "0x1.2q3"}[fault]]
    lines = [f'"{format_multiindex(a)}": {v}' for a, v in records]
    if fault == "empty":
        lines[k] = lines[k].replace('"', '",', 1)
    # one entry zero-padded: to 20-30 digits it is the same index, past int()'s 4300-digit limit a malformed one
    width, padded = draw(st.one_of(st.just(0), st.integers(20, 30), st.just(4301))), 0
    if width and lines:
        j = draw(st.integers(0, len(lines) - 1))
        lines[j], padded = re.subn(r'(?<=")[0-9]+', lambda entry: entry[0].zfill(width), lines[j], count=1)
    header = [f"n = {n}", f"d_max = {d_max}", f"normalized = {str(normalized).lower()}", "scale = 0x1.8p+1"]
    return "\n".join(header + lines) + "\n", fault is not None or (padded == 1 and width > 4300)


def _outcome(load, path):
    try:
        seq = load(path)
    except Exception as e:
        return type(e), str(e)
    return seq.n, seq.d_max, seq.normalized, seq.scale, seq.array.tobytes()


@settings(max_examples=300)
@given(_moment_files())
def test_loader_agrees_with_the_record_by_record_oracle(tmp_path_factory, file):
    # both accept with the same bits, or both raise the same MomentFormatError naming the same line;
    # a huge exponent is rejected before any table is sized by it, within hypothesis's deadline
    text, faulty = file
    path = tmp_path_factory.mktemp("mom") / "m.txt"
    path.write_text(text)
    got = _outcome(load_moments, path)
    assert got == _outcome(load_moments_by_record, path)
    assert (got[0] is MomentFormatError) == faulty


def test_loader_names_the_first_fault_in_file_order(tmp_path):
    # several faults: the first record at fault is named, with the check a record-by-record reader meets first
    y = catalog("lebesgue^2", 2)
    path = tmp_path / "m.txt"
    store_moments(y, path)
    head, records = path.read_text().splitlines()[:4], path.read_text().splitlines()[4:]
    cases = {
        "duplicate before a bad value": records[:2] + [records[0], '"1,1": junk'] + records[2:],
        "non-finite before a bad value": [records[0], '"1,0": nan', '"0,1": junk'] + records[3:],
        "bad value before a deep index": [records[0], '"1,0": junk', '"9,0": 1'] + records[2:],
        "deep index before a bad index": [records[0], '"99999999999999999999999,0": 1', '"1,,0": 1'] + records[1:],
        "bad index before incomplete": records[:3] + ['"1": 1'],
        "an entry past int()'s digit limit with a non-finite value": records[:2] + ['"' + "0" * 5000 + '1,0": nan'],
    }
    for name, body in cases.items():
        path.write_text("\n".join(head + body) + "\n")
        got = _outcome(load_moments, path)
        assert got[0] is MomentFormatError and got == _outcome(load_moments_by_record, path), name
    # with d_max >= 2^53 a float degree or two float-equal indices can be rounding's doing:
    # 2^53 + 1 reads as 2^53, and d_max = 2^53 + 2 declares more moments than any file holds
    store_moments(catalog("lebesgue^1", 2), path)
    head, records = path.read_text().splitlines()[:4], path.read_text().splitlines()[4:]
    head = [line.replace("d_max = 2", f"d_max = {2**53 + 2}") for line in head]
    cases = {
        "degree 2^53 + 1, float-flagged": records + ['"9007199254740993": 1'],
        "distinct, float-equal": records + ['"9007199254740993": 1', '"9007199254740992": 1'],
        "a real duplicate": records + ['"9007199254740993": 1', '"9007199254740993": 1'],
        "degree above d_max": records + ['"9007199254740992": 1', '"9007199254740995": 1'],
        "non-finite, float-flagged": records + ['"9007199254740992": 1', '"9007199254740993": nan'],
    }
    for name, body in cases.items():
        path.write_text("\n".join(head + body) + "\n")
        got = _outcome(load_moments, path)
        assert got[0] is MomentFormatError and got == _outcome(load_moments_by_record, path), name
    # two distinct entries past int64 read alike, yet neither is at fault under d_max = 10^30:
    # both readers go on to the record count, which overflows
    head = [line.replace(f"d_max = {2**53 + 2}", f"d_max = {10**30}") for line in head]
    path.write_text("\n".join(head + records + [f'"{10**23}": 1', f'"{10**23 + 1}": 1']) + "\n")
    got = _outcome(load_moments, path)
    assert got[0] is OverflowError and got == _outcome(load_moments_by_record, path)


def test_readers_agree_on_long_index_entries(tmp_path):
    # an entry of up to 4300 digits is int()'s, and zero padding keeps the index; past that it is malformed
    path = tmp_path / "m.txt"
    store_moments(catalog("lebesgue^1", 1), path)
    head, records = path.read_text().splitlines()[:4], path.read_text().splitlines()[4:]
    assert records[1].startswith('"1": ')
    for width, loads in ((25, True), (4300, True), (5001, False)):
        path.write_text("\n".join(head + [records[0], records[1].replace('"1"', '"' + "1".zfill(width) + '"')]) + "\n")
        got = _outcome(load_moments, path)
        assert got == _outcome(load_moments_by_record, path), width
        assert (got[0] is not MomentFormatError) == loads, (width, got)


# each file format: a value to store, its writer and reader, and its required header fields
TEXT_FORMATS = {
    "moments": (lambda: catalog("lebesgue^2", 2), store_moments, load_moments, ("n", "d_max", "normalized", "scale")),
    "rule": (
        lambda: CubatureRule(2, 2, np.array([[-0.5, 0.25], [0.5, 0.0], [0.0, -0.75]]), np.full(3, 4 / 3), scale=4.0),
        store_rule,
        load_rule,
        ("n", "m", "precision", "scale"),
    ),
}


@pytest.mark.parametrize("fmt", sorted(TEXT_FORMATS))
def test_text_grammar(tmp_path, fmt):
    make, store, load, required = TEXT_FORMATS[fmt]
    path = tmp_path / "file.txt"
    store(make(), path)
    lines = path.read_text().splitlines()
    # blank and comment lines are skipped: the padded file loads to the same bits
    padded = tmp_path / "padded.txt"
    padded.write_text("\n".join(["", "# comment", *lines[:2], "   ", "  # indented", *lines[2:], ""]) + "\n")
    again = tmp_path / "again.txt"
    store(load(padded), again)
    assert again.read_text() == path.read_text()

    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join([*lines[:3], "neither a header nor a record", *lines[3:]]) + "\n")
    with pytest.raises(MomentFormatError, match=r"line 4\b"):
        load(bad)
    for key in required:
        bad.write_text("\n".join(line for line in lines if not line.startswith(f"{key} =")) + "\n")
        with pytest.raises(MomentFormatError, match=f"missing header field '{key}'"):
            load(bad)
        # a field given twice is an error, not the last value read
        twice = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
        bad.write_text("\n".join([*lines[: twice + 1], lines[twice], *lines[twice + 1 :]]) + "\n")
        with pytest.raises(MomentFormatError, match=rf"line {twice + 2}: header field '{key}' given twice"):
            load(bad)


_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1)
_PLAIN = st.text(st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=":"), min_size=1)


@given(
    header=st.dictionaries(st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True), _PLAIN),
    records=st.lists(
        st.tuples(st.lists(_PLAIN, max_size=3).map(" ".join).filter(lambda s: not s.startswith("#")), _TOKEN)
    ),
    sep=st.sampled_from([": ", " : "]),
)
def test_format_text_read_text_round_trip(tmp_path_factory, header, records, sep):
    path = tmp_path_factory.mktemp("text") / "file.txt"
    path.write_text(format_text(header, records, sep) + "\n")
    got_header, got_records = read_text(path, tuple(header))
    assert got_header == header
    assert [(left, right) for _, left, right in got_records] == records


def test_unnormalized_file_then_normalize(tmp_path):
    values = np.array([3.0, 0.0, 1.0])
    seq = MomentSequence(1, 2, values, normalized=False, scale=1.0)
    path = tmp_path / "m.txt"
    store_moments(seq, path)
    loaded = load_moments(path)
    assert not loaded.normalized
    norm = normalize_probability(loaded)
    assert norm.scale == pytest.approx(3.0)
    assert norm.value((2,)) == pytest.approx(1.0 / 3.0)


def test_moment_matrix_1d():
    y = catalog("lebesgue", 4)
    mm = moment_matrix(y, 1)
    assert np.allclose(mm, [[1.0, 0.0], [0.0, 1.0 / 3.0]])
    with pytest.raises(ValueError):
        moment_matrix(y, 3)  # needs degree 6 moments


def test_moment_matrix_copies_moments_exactly():
    rng = np.random.default_rng(3)
    table = glex_enumerate(3, 6)
    y = MomentSequence(3, 6, rng.standard_normal(len(table)), normalized=False)
    rows = glex_enumerate(3, 3).tolist()
    expected = [[y.value(tuple(a + b for a, b in zip(ra, rb))) for rb in rows] for ra in rows]
    assert np.array_equal(moment_matrix(y, 3), np.array(expected))


def test_moment_matrix_layout_matches_bordered_rows():
    # top-left 5x5 of the n=2 degree-2 matrix carries the (y00 y10 y01 y20 y11)
    # rows used by the bordered-determinant construction
    y = catalog("lebesgue^2", 4)
    mm = moment_matrix(y, 2)
    first_row = [y.value(a) for a in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    assert np.allclose(mm[0], first_row)
    assert np.allclose(mm, mm.T)


@pytest.mark.parametrize(
    "spec_text,n", [("lebesgue", 1), ("chebyshev1", 1), ("hermite", 1), ("lebesgue^2", 2), ("symmetrized:0.5", 2), ("chebyshev2^3", 3)]
)
def test_catalog_moment_matrices_psd(spec_text, n):
    y = catalog(spec_text, 8)
    for d in range(5):
        arr = moment_matrix(y, d)
        low = psd_cholesky(arr)
        assert np.allclose(low @ low.T, arr, atol=1e-10 * max(1.0, abs(arr).max()))
        assert np.min(np.linalg.eigvalsh(arr)) >= -1e-10 * abs(arr).max()


def test_psd_cholesky_identity():
    assert np.allclose(psd_cholesky(np.eye(4)), np.eye(4))


def test_psd_cholesky_pd_by_eigenvalue_oracle():
    arr = moment_matrix(catalog("lebesgue", 4), 2)
    assert np.linalg.eigvalsh(arr).min() > 0  # oracle
    low = psd_cholesky(arr)
    assert np.all(np.diag(low) > 0)


def test_psd_cholesky_dirac_fails_at_pivot_1():
    # single Dirac at the origin: rank-1 moment matrix
    dirac = MomentSequence(1, 2, np.array([1.0, 0.0, 0.0]), normalized=True)
    with pytest.raises(NotPositiveDefiniteError) as err:
        psd_cholesky(moment_matrix(dirac, 1))
    assert err.value.pivot_index == 1


def test_psd_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        psd_cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec("nope", 1)
    with pytest.raises(ValueError):
        MeasureSpec("lebesgue", 0)
    with pytest.raises(ValueError):
        MeasureSpec("symmetrized", 3)


def _atoms_file(path, n: int, d_max: int, seed: int) -> np.ndarray:
    """A moment file of random atoms in hex-float, Glex-ordered; the moments it holds."""
    rng = np.random.default_rng(seed)
    x, w = rng.uniform(-1.0, 1.0, (20, n)), rng.uniform(0.5, 1.5, 20)
    exps = glex_enumerate(n, d_max)
    y = np.array([float(w @ np.prod(x ** alpha, axis=1)) for alpha in exps])
    records = [f'"{format_multiindex(a)}": {v.hex()}' for a, v in zip(exps.tolist(), y.tolist())]
    path.write_text("\n".join([f"n = {n}", f"d_max = {d_max}", "normalized = false", "scale = 0x1.0p+0", *records]) + "\n")
    return y


def test_valid_files_are_read_as_whole_arrays(tmp_path, monkeypatch):
    # the benchmark's files are valid: reading one record at a time would cost them the array path's speed
    def by_record(*args):
        raise AssertionError("a valid file was read record by record")

    monkeypatch.setattr(measures, "_moments_by_record", by_record)
    path = tmp_path / "m.txt"
    specs = ["lebesgue^2", "chebyshev1^3", "lebesgue^3", "lebesgue^4", "symmetrized:0.5"]
    for spec_text in specs + [f"{w}^1" for w in measures.ONE_D_WEIGHTS]:
        y = catalog(spec_text, 8)
        store_moments(y, path)
        assert np.array_equal(load_moments(path).array, y.array), spec_text
    for n in (1, 2, 3):
        y = _atoms_file(path, n, 12 // n, seed=n)
        assert np.array_equal(load_moments(path).array, y), n
    # decimal values, records out of order, comments and blank lines
    path.write_text('# by hand\nn = 2\nd_max = 1\n\nnormalized = true\nscale = 2.5\n"0,1": -0.25\n\n# x1\n"1,0": 1e-3\n"0,0": 1\n')
    assert np.array_equal(load_moments(path).array, [1.0, 1e-3, -0.25])
