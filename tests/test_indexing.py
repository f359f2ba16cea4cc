import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausscub.indexing import (
    add,
    dim_homog,
    dim_total,
    format_multiindex,
    glex_compare,
    glex_enumerate,
    glex_key,
    glex_rank,
    homog_rank,
    pair_count,
    pair_rank,
    parse_multiindex,
)


def brute_monomials(n, d_max):
    return [a for a in itertools.product(range(d_max + 1), repeat=n) if sum(a) <= d_max]


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


def test_glex_enumerate_n2():
    table = glex_enumerate(2, 2)
    assert table.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_glex_enumerate_simple():
    assert glex_enumerate(1, 3).indices == ((0,), (1,), (2,), (3,))
    assert glex_enumerate(3, 1).indices == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_glex_compare_examples():
    assert glex_compare((1, 0), (0, 1)) == -1
    assert glex_compare((2, 0), (2, 0)) == 0
    assert glex_compare((0, 2), (1, 1)) == 1


def test_glex_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        glex_compare((1, 0), (1, 0, 0))


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
    a, b, c = abc
    # antisymmetry
    assert glex_compare(a, b) == -glex_compare(b, a)
    # totality: equal only for identical indices
    assert (glex_compare(a, b) == 0) == (a == b)
    # transitivity
    if glex_compare(a, b) <= 0 and glex_compare(b, c) <= 0:
        assert glex_compare(a, c) <= 0


@given(st.integers(1, 4), st.integers(0, 6))
def test_glex_enumerate_sorted_and_complete(n, d_max):
    table = glex_enumerate(n, d_max)
    assert len(table) == dim_total(n, d_max)
    assert sorted(table.indices, key=glex_key) == list(table.indices)
    for i in range(len(table) - 1):
        assert glex_compare(table.indices[i], table.indices[i + 1]) == -1
    for i, alpha in enumerate(table.indices):
        assert table.rank(alpha) == i


def test_degree_blocks():
    table = glex_enumerate(3, 4)
    for d in range(5):
        block = table.indices[table.block(d)]
        assert len(block) == dim_homog(3, d)
        assert all(sum(a) == d for a in block)


def test_dim_total_is_sum_of_homog():
    for n in range(1, 5):
        for d in range(9):
            assert dim_total(n, d) == sum(dim_homog(n, k) for k in range(d + 1))


def test_homog_rank_matches_table():
    for n in (1, 2, 3):
        table = glex_enumerate(n, 5)
        for d in range(6):
            for i, alpha in enumerate(table.indices[table.block(d)]):
                assert homog_rank(alpha) == i


def test_glex_rank_matches_table():
    for n in range(1, 5):
        for d in range(7):
            table = glex_enumerate(n, d)
            exps = np.array(table.indices)
            assert list(glex_rank(exps)) == [table.rank(a) for a in table.indices]
            # broadcast parts rank their sums without forming them
            low = glex_enumerate(n, d // 2).indices
            sums = glex_rank(np.array(low)[:, None], np.array(low)[None, :])
            assert sums.tolist() == [[table.rank(add(a, b)) for b in low] for a in low]


def test_glex_rank_high_degree_and_unit_shift():
    for n, d in ((1, 20), (2, 20), (3, 12), (4, 10)):
        table = glex_enumerate(n, d)
        assert glex_rank(np.array(table.indices)).tolist() == list(range(len(table)))
        # the e_i shift of multiplication_operators
        low = np.array(glex_enumerate(n, (d - 1) // 2).indices)
        for ei in np.eye(n, dtype=int):
            ranks = glex_rank(low[:, None], low[None, :], ei)
            assert ranks.tolist() == [[table.rank(add(add(a, b), ei)) for b in low] for a in low]


def test_pair_rank_trivial_cases():
    assert pair_rank((2,), (2,), 2) == 0
    assert pair_count(1, 2) == 1
    ranks = {pair_rank(g, b, 1) for g, b in [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (0, 1))]}
    assert ranks == {0, 1, 2}
    assert pair_count(2, 1) == 3
    assert pair_count(2, 2) == 6


def test_pair_rank_bijection_and_symmetry():
    for n in (1, 2, 3):
        for m in range(1, 6):
            table = glex_enumerate(n, m)
            block = table.indices[table.block(m)]
            seen = set()
            for i, g in enumerate(block):
                for b in block[i:]:
                    r = pair_rank(g, b, m)
                    assert r == pair_rank(b, g, m)
                    seen.add(r)
            assert seen == set(range(pair_count(n, m)))


def test_pair_rank_validates_degree():
    with pytest.raises(ValueError):
        pair_rank((1, 0), (0, 2), 1)


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


def test_add():
    assert add((1, 2), (0, 3)) == (1, 5)
