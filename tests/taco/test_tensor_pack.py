"""Tensor packing tests: the SpDISTAL encoding of Fig. 7 and roundtrips."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.taco import (
    CSC,
    CSF3,
    CSR,
    DDC,
    Compressed,
    Dense,
    Format,
    SPARSE_VECTOR,
    Tensor,
)


def fig7_matrix():
    """The 4x4 example matrix used throughout the paper (Figs. 3 and 7)."""
    rows = np.array([0, 0, 0, 1, 1, 2, 3, 3])
    cols = np.array([0, 1, 3, 1, 3, 0, 0, 3])
    vals = np.arange(1.0, 9.0)
    return rows, cols, vals


class TestFig7Encoding:
    def test_csr_pos_crd_vals(self):
        rows, cols, vals = fig7_matrix()
        B = Tensor.from_coo("B", [rows, cols], vals, (4, 4), CSR)
        lvl = B.levels[1]
        assert lvl.pos.data.tolist() == [[0, 2], [3, 4], [5, 5], [6, 7]]
        assert lvl.crd.data.tolist() == [0, 1, 3, 1, 3, 0, 0, 3]
        assert B.vals.data.tolist() == list(vals)

    def test_csc_matches_fig3(self):
        rows, cols, vals = fig7_matrix()
        B = Tensor.from_coo("B", [rows, cols], vals, (4, 4), CSC)
        lvl = B.levels[1]
        # Fig. 3 CSC: pos {0,2}{3,4}{5,4}{5,7}, crd 0 2 3 0 1 0 1 3
        assert lvl.pos.data.tolist() == [[0, 2], [3, 4], [5, 4], [5, 7]]
        assert lvl.crd.data.tolist() == [0, 2, 3, 0, 1, 0, 1, 3]
        assert lvl.crd.data.tolist() == [0, 2, 3, 0, 1, 0, 1, 3]

    def test_csr_csc_same_dense(self):
        rows, cols, vals = fig7_matrix()
        a = Tensor.from_coo("a", [rows, cols], vals, (4, 4), CSR).to_dense()
        b = Tensor.from_coo("b", [rows, cols], vals, (4, 4), CSC).to_dense()
        assert np.allclose(a, b)


class TestPackingCases:
    def test_duplicates_summed(self):
        B = Tensor.from_coo(
            "B", [np.array([0, 0]), np.array([1, 1])], np.array([2.0, 3.0]), (2, 2), CSR
        )
        assert B.nnz == 1
        assert B.to_dense()[0, 1] == 5.0

    def test_empty_tensor(self):
        B = Tensor.zeros("B", (3, 4), CSR)
        assert B.nnz == 0
        assert np.all(B.to_dense() == 0)
        assert B.levels[1].pos.data.shape == (3, 2)

    def test_sparse_vector(self):
        v = Tensor.from_coo("v", [np.array([1, 5])], np.array([1.0, 2.0]), (8,),
                            SPARSE_VECTOR)
        assert v.levels[0].pos.data.tolist() == [[0, 1]]
        assert v.levels[0].crd.data.tolist() == [1, 5]
        assert v.to_dense()[5] == 2.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            Tensor.from_coo("B", [np.array([5]), np.array([0])], np.array([1.0]),
                            (4, 4), CSR)

    def test_coordinate_length_mismatch(self):
        with pytest.raises(ValueError):
            Tensor.from_coo("B", [np.array([0, 1]), np.array([0])], np.array([1.0]),
                            (4, 4), CSR)

    def test_format_order_mismatch(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            Tensor("B", (4, 4, 4), CSR)

    def test_csf3_level_counts(self):
        idx = [np.array([0, 0, 1]), np.array([0, 1, 0]), np.array([2, 2, 2])]
        T = Tensor.from_coo("T", idx, np.ones(3), (2, 2, 3), CSF3)
        assert T.levels[1].num_positions == 3  # three distinct (i, j) fibers
        assert T.levels[2].num_positions == 3
        assert T.nnz == 3

    def test_ddc_dense_prefix(self):
        idx = [np.array([0, 1]), np.array([1, 0]), np.array([2, 0])]
        T = Tensor.from_coo("T", idx, np.array([1.0, 2.0]), (2, 2, 3), DDC)
        assert T.levels[0].is_dense and T.levels[1].is_dense
        # pos of the compressed level spans all 4 dense (i, j) positions
        assert T.levels[2].pos.data.shape == (4, 2)
        assert np.allclose(T.to_dense()[0, 1, 2], 1.0)

    def test_dense_tensor_nd_vals(self):
        D = Tensor.from_dense("D", np.arange(6.0).reshape(2, 3))
        assert D.vals.data.shape == (2, 3)
        assert np.allclose(D.dense_array(), np.arange(6.0).reshape(2, 3))

    def test_dense_array_respects_mode_ordering(self):
        arr = np.arange(6.0).reshape(2, 3)
        f = Format([Dense, Dense], mode_ordering=(1, 0))
        D = Tensor.from_dense("D", arr, f)
        assert D.vals.data.shape == (3, 2)  # stored column-major
        assert np.allclose(D.dense_array(), arr)

    def test_from_scipy_roundtrip(self):
        import scipy.sparse as sp

        m = sp.random(10, 8, density=0.3, random_state=np.random.default_rng(0),
                      format="csr")
        B = Tensor.from_scipy("B", m, CSR)
        assert np.allclose(B.to_scipy().toarray(), m.toarray())

    def test_nbytes_counts_levels(self):
        rows, cols, vals = fig7_matrix()
        B = Tensor.from_coo("B", [rows, cols], vals, (4, 4), CSR)
        assert B.nbytes == 4 * 16 + 8 * 8 + 8 * 8  # pos rects + crd + vals


def _regions(T):
    arrays = []
    for lvl in T.levels:
        if not lvl.is_dense:
            arrays += [lvl.pos.data, lvl.crd.data]
    return arrays + [T.vals.data]


def _assert_same_regions(a, b):
    ra, rb = _regions(a), _regions(b)
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


class TestPackSortFastPath:
    """Canonical input skips the sort; the regions must not notice."""

    def canonical(self, seed=5):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        A = sp.random(40, 30, density=0.2, random_state=rng, format="csr")
        # Integer values keep duplicate folding exact in any add order.
        A.data = np.round(A.data * 8) - 3.0
        A.sum_duplicates()
        return A

    def test_canonical_csr_matches_shuffled_coo(self):
        A = self.canonical()
        coo = A.tocoo()
        perm = np.random.default_rng(1).permutation(coo.nnz)
        fast = Tensor.from_scipy("B", A, CSR)
        sorted_ = Tensor.from_coo(
            "B", [coo.row[perm], coo.col[perm]], coo.data[perm], A.shape, CSR
        )
        _assert_same_regions(fast, sorted_)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_duplicates_fold_identically(self, shuffle):
        A = self.canonical()
        coo = A.tocoo()
        # Split every value into two duplicate entries that sum back to it.
        rows = np.repeat(coo.row, 2)
        cols = np.repeat(coo.col, 2)
        vals = np.repeat(coo.data, 2)
        vals[0::2] = 1.0
        vals[1::2] -= 1.0
        if shuffle:
            perm = np.random.default_rng(2).permutation(rows.size)
            rows, cols, vals = rows[perm], cols[perm], vals[perm]
        dup = Tensor.from_coo("B", [rows, cols], vals, A.shape, CSR)
        _assert_same_regions(dup, Tensor.from_scipy("B", A, CSR))

    def test_csc_storage_order_is_sorted_too(self):
        A = self.canonical()
        coo = A.tocoo()  # row-major: not sorted for CSC's column-first order
        T = Tensor.from_coo("B", [coo.row, coo.col], coo.data, A.shape, CSC)
        assert np.array_equal(T.to_dense(), A.toarray())
        csc = A.tocsc()
        assert T.levels[1].crd.data.tolist() == csc.indices.tolist()


@st.composite
def coo_tensors(draw):
    order = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(order))
    nnz = draw(st.integers(0, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    coords = [rng.integers(0, s, size=nnz) for s in shape]
    vals = rng.random(nnz) + 0.5
    levels = [draw(st.sampled_from([Dense, Compressed])) for _ in range(order)]
    perm = draw(st.permutations(list(range(order))))
    return coords, vals, shape, Format(levels, tuple(perm))


class TestPackingProperties:
    @given(coo_tensors())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_preserves_dense_equivalent(self, case):
        coords, vals, shape, fmt = case
        dense = np.zeros(shape)
        if vals.size:
            np.add.at(dense, tuple(c for c in coords), vals)
        T = Tensor.from_coo("T", coords, vals, shape, fmt)
        assert np.allclose(T.to_dense(), dense)

    @given(coo_tensors())
    @settings(max_examples=60, deadline=None)
    def test_pos_ranges_are_contiguous_and_cover_crd(self, case):
        coords, vals, shape, fmt = case
        T = Tensor.from_coo("T", coords, vals, shape, fmt)
        for lvl in T.levels:
            if lvl.is_dense:
                continue
            pos = lvl.pos.data
            nonempty = pos[:, 1] >= pos[:, 0]
            covered = (pos[nonempty, 1] - pos[nonempty, 0] + 1).sum()
            assert covered == lvl.num_positions
            # monotone, gap-free starts
            starts = pos[:, 0]
            assert np.all(np.diff(starts) >= 0)
