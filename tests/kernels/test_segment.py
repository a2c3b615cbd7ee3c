"""Segment primitive tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    expand_ranges,
    local_row_pointer,
    piece_range,
    reduction_scratch,
    row_of_positions,
    segment_sum,
    segment_sum_rows,
)


def bincount_columns(values, ids, nseg):
    """The per-column ``np.bincount`` reduction the non-zeros leaves ran
    before ``csr_matvecs``: the values ``segment_sum_rows`` must equal."""
    out = np.empty((nseg, values.shape[1]), dtype=values.dtype)
    for col in range(values.shape[1]):
        out[:, col] = np.bincount(ids, weights=values[:, col], minlength=nseg)[:nseg]
    return out


def sum_rows(values, ids, nseg):
    return segment_sum_rows(
        values, local_row_pointer(ids, nseg),
        *reduction_scratch([(0, values.shape[0] - 1)]),
    )


def assert_bits_equal(got, expected):
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype
    assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestPieceRange:
    def test_even(self):
        assert [piece_range(8, 4, c) for c in range(4)] == [
            (0, 1), (2, 3), (4, 5), (6, 7)
        ]

    def test_uneven_trailing_empty(self):
        assert piece_range(4, 3, 2) == (4, 3)  # empty trailing piece

    def test_zero_extent(self):
        assert piece_range(0, 4, 0) == (0, -1)

    def test_union_covers_everything(self):
        for n, p in [(10, 3), (7, 7), (5, 8), (100, 16)]:
            got = set()
            for c in range(p):
                lo, hi = piece_range(n, p, c)
                got.update(range(lo, hi + 1))
            assert got == set(range(n))


class TestRowOfPositions:
    def test_basic(self):
        starts = np.array([0, 3, 5, 6])
        assert row_of_positions(starts, np.array([0, 2, 3, 4, 5, 6, 7])).tolist() == [
            0, 0, 1, 1, 2, 3, 3
        ]

    def test_empty_rows_skipped(self):
        # row 1 empty: starts [0, 2, 2, 5]
        starts = np.array([0, 2, 2, 5])
        got = row_of_positions(starts, np.array([1, 2, 4]))
        assert got.tolist() == [0, 2, 2]


class TestExpandRanges:
    def test_simple(self):
        got = expand_ranges(np.array([0, 5]), np.array([2, 6]))
        assert got.tolist() == [0, 1, 2, 5, 6]

    def test_with_empty_ranges(self):
        got = expand_ranges(np.array([0, 4, 7]), np.array([1, 3, 8]))
        assert got.tolist() == [0, 1, 7, 8]

    def test_all_empty(self):
        assert expand_ranges(np.array([3]), np.array([2])).size == 0

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(-1, 8)), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, spans):
        lo = np.array([s for s, _ in spans], dtype=np.int64)
        hi = np.array([s + d for s, d in spans], dtype=np.int64)
        expected = [p for l, h in zip(lo, hi) for p in range(l, h + 1)]
        assert expand_ranges(lo, hi).tolist() == expected


class TestSegmentSums:
    def test_segment_sum(self):
        got = segment_sum(np.array([1.0, 2, 3, 4]), np.array([0, 0, 2, 2]), 3)
        assert got.tolist() == [3.0, 0.0, 7.0]

    def test_local_row_pointer(self):
        got = local_row_pointer(np.array([0, 0, 2, 2, 2]), 4)
        assert got.dtype == np.int64
        assert got.tolist() == [0, 2, 2, 5, 5]

    def test_segment_sum_rows(self):
        vals = np.arange(8.0).reshape(4, 2)
        got = sum_rows(vals, np.array([0, 0, 2, 2]), 4)  # segments 1, 3 empty
        assert got.tolist() == [[2.0, 4.0], [0.0, 0.0], [10.0, 12.0], [0.0, 0.0]]
        assert_bits_equal(got, bincount_columns(vals, np.array([0, 0, 2, 2]), 4))

    def test_negative_zero_products(self):
        # Both reductions start each segment from +0.0: -0.0 products sum
        # to +0.0, and an empty segment stays +0.0.
        vals = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]])
        ids = np.array([0, 0, 2])
        got = sum_rows(vals, ids, 3)
        assert not np.signbit(got).any()
        assert_bits_equal(got, bincount_columns(vals, ids, 3))

    def test_reduction_scratch_fits_largest_span(self):
        ones, index = reduction_scratch([(4, 9), (0, -1), (10, 12)])
        assert ones.tolist() == [1.0] * 6
        assert index.dtype == np.int64 and index.tolist() == list(range(6))
        assert reduction_scratch([])[0].size == 0

    def test_complex_values_raise(self):
        # np.bincount rejects complex weights; dropping the imaginary parts
        # silently would return wrong sums.
        with pytest.raises(TypeError):
            sum_rows(np.array([[1.0 + 2.0j], [3.0 + 0.0j]]), np.array([0, 1]), 2)

    @given(st.integers(1, 6), st.integers(0, 40), st.integers(1, 5),
           st.sampled_from([np.float64, np.float32]), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_bincount_columns(self, nseg, n, k, dtype, seed):
        rng = np.random.default_rng(seed)
        vals = (rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, (n, k)))
        vals[rng.random((n, k)) < 0.2] = -0.0
        vals = vals.astype(dtype)
        ids = np.sort(rng.integers(0, nseg, n))
        assert_bits_equal(sum_rows(vals, ids, nseg), bincount_columns(vals, ids, nseg))
