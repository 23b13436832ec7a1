import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hermlab import indexing


def test_span_dim_closed_form():
    for n in range(1, 5):
        for k in range(0, 12):
            assert indexing.span_dim(n, k) == math.comb(n + k, n)


def test_level_dim_closed_form():
    for n in range(1, 5):
        for k in range(0, 12):
            assert indexing.level_dim(n, k) == math.comb(k + n - 1, n - 1)


def test_level_dims_partition_span():
    assert indexing.span_dim(3, 7) == sum(indexing.level_dim(3, k) for k in range(8))


def test_enumeration_is_level_ordered():
    idx = indexing.multi_indices(3, 6)
    totals = idx.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)


def test_enumeration_prefix_property():
    # truncating the degree keeps the leading block unchanged
    big = indexing.multi_indices(2, 9)
    for k in range(10):
        small = indexing.multi_indices(2, k)
        assert np.array_equal(small, big[: indexing.span_dim(2, k)])


def test_level_of_matches_row_sums():
    idx = indexing.multi_indices(2, 5)
    assert np.array_equal(indexing.level_of(2, 5), idx.sum(axis=1))


def test_index_lookup_inverts_enumeration():
    idx = indexing.multi_indices(3, 4)
    lookup = indexing.index_lookup(3, 4)
    for row, alpha in enumerate(idx):
        assert lookup[tuple(alpha)] == row


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9))
def test_rows_unique_and_within_degree(n, k):
    idx = indexing.multi_indices(n, k)
    assert idx.shape == (indexing.span_dim(n, k), n)
    assert np.all(idx >= 0)
    assert np.all(idx.sum(axis=1) <= k)
    assert len({tuple(r) for r in idx}) == idx.shape[0]


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=8))
def test_lex_order_within_levels(n, k):
    idx = indexing.multi_indices(n, k)
    totals = idx.sum(axis=1)
    for lev in range(k + 1):
        block = idx[totals == lev]
        as_tuples = [tuple(r) for r in block]
        assert as_tuples == sorted(as_tuples)
