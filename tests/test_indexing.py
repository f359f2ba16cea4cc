import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausscub import indexing
from gausscub.indexing import (
    dim_homog,
    dim_total,
    format_multiindex,
    glex_enumerate,
    glex_rank,
    index_rank,
    pair_ranks,
    parse_multiindex,
)

from oracles import glex_key, glex_positions


def brute_monomials(n, d_max):
    return [a for a in itertools.product(range(d_max + 1), repeat=n) if sum(a) <= d_max]


def add(*indices):
    return tuple(map(sum, zip(*indices)))


def test_dim_total_examples():
    assert dim_total(2, 0) == 1
    assert dim_total(2, 2) == 6
    # enumeration oracle for n=3, d=2
    assert dim_total(3, 2) == len(brute_monomials(3, 2)) == 10


def test_dim_homog_examples():
    assert dim_homog(2, 3) == 4  # x1^3, x1^2 x2, x1 x2^2, x2^3
    assert dim_homog(1, 7) == 1
    assert dim_homog(3, 2) == len([a for a in brute_monomials(3, 2) if sum(a) == 2]) == 6


def test_dim_validation():
    with pytest.raises(ValueError):
        dim_total(0, 3)
    with pytest.raises(ValueError):
        dim_homog(2, -1)
    with pytest.raises(OverflowError):
        dim_total(500, 500)


def test_dim_total_overflow_is_decided_before_the_binomial_is_computed(monkeypatch):
    # C(n+d, d) >= 2^min(n, d): a count past 64 bits needs no million-digit binomial
    for n in range(1, 80):
        for d in range(80):
            if math.comb(n + d, d) < 2**63:
                assert dim_total(n, d) == math.comb(n + d, d)
            else:
                with pytest.raises(OverflowError):
                    dim_total(n, d)

    def small_comb(a, b):
        assert min(b, a - b) < 63, f"computed C({a},{b})"
        return math.comb(a, b)

    monkeypatch.setattr(indexing, "comb", small_comb)
    with pytest.raises(OverflowError):
        dim_total(10**6, 10**6)


def _indices(n: int, d_max: int) -> list[tuple[int, ...]]:
    return [tuple(a) for a in glex_enumerate(n, d_max).tolist()]


def test_glex_enumerate_n2():
    assert _indices(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_glex_enumerate_simple():
    assert _indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert _indices(3, 1) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_glex_enumerate_is_a_shared_read_only_int_array():
    exps = glex_enumerate(2, 3)
    assert exps.dtype == np.int64 and exps.shape == (dim_total(2, 3), 2)
    assert glex_enumerate(2, 3) is exps
    with pytest.raises(ValueError):
        exps[0, 0] = 1
    # so is the pair layout every moment matrix gathers through
    ranks = pair_ranks(2, 3, 1)
    assert pair_ranks(2, 3, 1) is ranks
    with pytest.raises(ValueError):
        ranks[0, 0] = 1


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 8), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(0, 8), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(0, 8), min_size=n, max_size=n).map(tuple),
        )
    )
)
def test_glex_total_order(abc):
    a, b, c = (glex_key(x) for x in abc)
    # totality: equal keys only for identical indices
    assert (a == b) == (abc[0] == abc[1])
    # a degree decides first; within a degree, a higher exponent on an earlier variable
    if sum(abc[0]) != sum(abc[1]):
        assert (a < b) == (sum(abc[0]) < sum(abc[1]))
    # transitivity
    if a <= b and b <= c:
        assert a <= c


@given(st.integers(1, 4), st.integers(0, 6))
def test_glex_enumerate_sorted_and_complete(n, d_max):
    indices = _indices(n, d_max)
    assert len(indices) == dim_total(n, d_max)
    assert sorted(indices, key=glex_key) == indices
    assert len(set(indices)) == len(indices)
    assert all(len(a) == n and min(a) >= 0 and sum(a) <= d_max for a in indices)


def test_glex_enumerate_matches_sorted_brute_force():
    # the table is built block by block; the definition is the sort by glex_key
    for n in range(1, 6):
        for d_max in range(7):
            assert _indices(n, d_max) == sorted(brute_monomials(n, d_max), key=glex_key)


def test_degree_blocks():
    indices = _indices(3, 4)
    for d in range(5):
        block = indices[dim_total(3, d) - dim_homog(3, d) : dim_total(3, d)]
        assert len(block) == dim_homog(3, d)
        assert all(sum(a) == d for a in block)


def test_dim_total_is_sum_of_homog():
    for n in range(1, 5):
        for d in range(9):
            assert dim_total(n, d) == sum(dim_homog(n, k) for k in range(d + 1))


def test_glex_rank_matches_table():
    for n in range(1, 5):
        for d in range(7):
            pos = glex_positions(n, d)
            assert glex_rank(glex_enumerate(n, d)).tolist() == list(range(len(pos)))
            assert glex_rank(np.zeros((0, n), dtype=np.int64)).shape == (0,)
            # broadcast parts rank their sums without forming them
            low = _indices(n, d // 2)
            sums = glex_rank(np.array(low)[:, None], np.array(low)[None, :])
            assert sums.tolist() == [[pos[add(a, b)] for b in low] for a in low]


def test_index_rank_is_glex_rank():
    # one index ranked in Python ints, each row of the table as glex_rank ranks the whole table
    for n in range(1, 5):
        for d in range(7):
            table = glex_enumerate(n, d)
            assert [index_rank(alpha, n, d) for alpha in table.tolist()] == glex_rank(table).tolist()


def test_glex_rank_high_degree_and_unit_shift():
    for n, d in ((1, 20), (2, 20), (3, 12), (4, 10)):
        pos = glex_positions(n, d)
        assert glex_rank(glex_enumerate(n, d)).tolist() == list(range(len(pos)))
        # the e_i shift of multiplication_operators
        low = glex_enumerate(n, (d - 1) // 2)
        for i, ei in enumerate(np.eye(n, dtype=int)):
            ranks = glex_rank(low[:, None], low[None, :], ei)
            assert ranks.tolist() == [[pos[add(a, b, ei)] for b in low.tolist()] for a in low.tolist()]
            assert np.array_equal(pair_ranks(n, (d - 1) // 2, i), ranks)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(0, 20), min_size=n, max_size=n)))
def test_multiindex_roundtrip(exps):
    alpha = tuple(exps)
    assert parse_multiindex(format_multiindex(alpha)) == alpha


def test_parse_multiindex_errors():
    with pytest.raises(ValueError):
        parse_multiindex("1,-2")
    with pytest.raises(ValueError):
        parse_multiindex("1,a")
    with pytest.raises(ValueError):
        parse_multiindex("1,2", n=3)

