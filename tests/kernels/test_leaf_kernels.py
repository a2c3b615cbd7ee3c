"""Leaf kernel tests: the bound ``bind_*`` leaves vs loop references vs SciPy.

Each leaf binds once over ``(color, lo, hi)`` pieces and returns
``{color: thunk}``; :func:`run` executes every thunk and returns their
:class:`~repro.legion.machine.Work`.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.kernels import (
    bind_fused_sddmm_spmm_nonzeros,
    bind_fused_sddmm_spmm_rows,
    bind_sddmm_nonzeros,
    bind_sddmm_rows,
    bind_spmm_nonzeros,
    bind_spmm_rows,
    bind_spmttkrp_csf3_nonzeros,
    bind_spmttkrp_csf3_rows,
    bind_spmttkrp_ddc_nonzeros,
    bind_spmttkrp_ddc_rows,
    bind_spmv_nonzeros,
    bind_spmv_rows,
    bind_spttv_csf3_rows,
    bind_spttv_ddc_rows,
    row_of_positions,
    sddmm_reference,
    spadd3_fill,
    spadd3_symbolic,
    spmm_rows_reference,
    spmttkrp_reference,
    spmv_rows_reference,
    spttv_reference,
)
from repro.legion import make_pos_region
from repro.taco import CSF3, CSR, DDC, Tensor

rng = np.random.default_rng(11)


def run(thunks):
    """Execute every bound piece; returns their Work in color order."""
    return [thunks[color]() for color in sorted(thunks)]


def split(lo, hi, parts):
    """``parts`` inclusive ``(color, lo, hi)`` pieces covering ``[lo, hi]``."""
    edges = np.linspace(lo, hi + 1, parts + 1).astype(int)
    return [(c, int(edges[c]), int(edges[c + 1]) - 1) for c in range(parts)]


@pytest.fixture
def csr_case():
    n, m = 30, 24
    M = sp.random(n, m, density=0.2, random_state=rng, format="csr")
    # ensure an empty row and an empty trailing row exist
    M = M.tolil()
    M[3, :] = 0
    M[n - 1, :] = 0
    M = M.tocsr()
    M.eliminate_zeros()
    B = Tensor.from_scipy("B", M, CSR)
    pos, crd, vals = B.csr_arrays()
    return M, pos, crd, vals


class TestSpMV:
    def test_rows_match_scipy(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out = np.full(M.shape[0], np.nan)
        run(bind_spmv_rows(pos, crd, vals, x, out, split(0, M.shape[0] - 1, 4)))
        assert np.allclose(out, M @ x)

    def test_rows_match_reference(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out_v = np.zeros(M.shape[0])
        out_r = np.zeros(M.shape[0])
        run(bind_spmv_rows(pos, crd, vals, x, out_v, [(0, 5, 20)]))
        spmv_rows_reference(pos, crd, vals, x, out_r, 5, 20)
        assert np.array_equal(out_v, out_r)

    def test_float32_rows_match_reference(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out_v = np.zeros(M.shape[0], dtype=np.float32)
        out_r = np.zeros(M.shape[0])
        run(bind_spmv_rows(pos, crd, vals, x, out_v, [(0, 0, M.shape[0] - 1)]))
        spmv_rows_reference(pos, crd, vals, x, out_r, 0, M.shape[0] - 1)
        assert np.array_equal(out_v, out_r.astype(np.float32))

    def test_nonzeros_pieces_sum(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out = np.zeros(M.shape[0])
        run(bind_spmv_nonzeros(pos, crd, vals, x, out, split(0, M.nnz - 1, 3)))
        assert np.allclose(out, M @ x)

    def test_empty_piece_zero_work(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out = np.zeros(M.shape[0])
        (w,) = run(bind_spmv_rows(pos, crd, vals, x, out, [(0, 5, 4)]))
        assert w.flops == 0

    def test_empty_row_range(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out = np.ones(M.shape[0])
        run(bind_spmv_rows(pos, crd, vals, x, out, [(0, 3, 3)]))  # the empty row
        assert out[3] == 0.0

    def test_work_counts_nnz(self, csr_case):
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out = np.zeros(M.shape[0])
        works = run(bind_spmv_rows(pos, crd, vals, x, out,
                                   split(0, M.shape[0] - 1, 4)))
        assert sum(w.flops for w in works) == 2.0 * M.nnz

    def test_value_update_reaches_bound_leaf(self, csr_case):
        # Leaves bind views: an in-place value update needs no re-bind.
        M, pos, crd, vals = csr_case
        x = rng.random(M.shape[1])
        out = np.zeros(M.shape[0])
        thunks = bind_spmv_rows(pos, crd, vals, x, out, [(0, 0, M.shape[0] - 1)])
        vals *= 2.0
        x[:] = rng.random(M.shape[1])
        run(thunks)
        assert np.allclose(out, (2.0 * M) @ x)


class TestSpMM:
    def test_rows(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[1], 7))
        out = np.zeros((M.shape[0], 7))
        pieces = [(c, lo, hi, None) for c, lo, hi in split(0, M.shape[0] - 1, 3)]
        run(bind_spmm_rows(pos, crd, vals, C, out, pieces))
        assert np.allclose(out, M @ C)

    def test_grid_column_blocks(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[1], 6))
        out = np.zeros((M.shape[0], 6))
        pieces = [
            (2 * r + q, lo, hi, cols)
            for r, (_, lo, hi) in enumerate(split(0, M.shape[0] - 1, 2))
            for q, cols in enumerate([(0, 2), (3, 5)])
        ]
        run(bind_spmm_rows(pos, crd, vals, C, out, pieces))
        assert np.allclose(out, M @ C)

    def test_rows_vs_reference(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[1], 4))
        a = np.zeros((M.shape[0], 4))
        b = np.zeros((M.shape[0], 4))
        run(bind_spmm_rows(pos, crd, vals, C, a, [(0, 2, 18, None)]))
        spmm_rows_reference(pos, crd, vals, C, b, 2, 18)
        assert np.allclose(a[2:19], b[2:19])

    def test_nonzeros(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[1], 7))
        out = np.zeros((M.shape[0], 7))
        run(bind_spmm_nonzeros(pos, crd, vals, C, out, split(0, M.nnz - 1, 2)))
        assert np.allclose(out, M @ C)


def _csr_of(pos, crd, vals, shape):
    return sp.csr_matrix(
        (vals, crd, np.concatenate([pos[:, 0], [crd.size]])), shape=shape
    )


class TestSDDMM:
    def test_matches_dense_formula(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[0], 5))
        D = rng.random((5, M.shape[1]))
        expected = M.multiply(C @ D).toarray()
        for bind, hi in ((bind_sddmm_nonzeros, M.nnz - 1),
                         (bind_sddmm_rows, M.shape[0] - 1)):
            ov = np.zeros(M.nnz)
            run(bind(pos, crd, vals, C, D, ov, split(0, hi, 3)))
            assert np.allclose(_csr_of(pos, crd, ov, M.shape).toarray(), expected)

    def test_matches_reference(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[0], 5))
        D = rng.random((5, M.shape[1]))
        a = np.zeros(M.nnz)
        b = np.zeros(M.nnz)
        run(bind_sddmm_nonzeros(pos, crd, vals, C, D, a, [(0, 3, 40)]))
        sddmm_reference(pos, crd, vals, C, D, b, 3, 40)
        assert np.allclose(a[3:41], b[3:41])


class TestFusedSDDMMSpMM:
    def test_matches_unfused_product(self, csr_case):
        M, pos, crd, vals = csr_case
        C = rng.random((M.shape[0], 5))
        D = rng.random((5, M.shape[1]))
        F = rng.random((M.shape[1], 3))
        expected = M.multiply(C @ D) @ F
        for bind, hi in ((bind_fused_sddmm_spmm_nonzeros, M.nnz - 1),
                         (bind_fused_sddmm_spmm_rows, M.shape[0] - 1)):
            out = np.zeros((M.shape[0], 3))
            run(bind(pos, crd, vals, C, D, F, out, split(0, hi, 3)))
            assert np.allclose(out, expected)

    def test_rows_without_nonzeros_are_zeroed(self, csr_case):
        M, pos, crd, vals = csr_case
        out = np.ones((M.shape[0], 3))
        C, D, F = np.ones((M.shape[0], 2)), np.ones((2, M.shape[1])), np.ones((M.shape[1], 3))
        (w,) = run(bind_fused_sddmm_spmm_rows(pos, crd, vals, C, D, F, out,
                                              [(0, 3, 3)]))  # the empty row
        assert w.flops == 0 and not out[3].any()


class TestSpAdd3:
    def test_two_phase_matches_scipy(self):
        n, m = 20, 16
        mats = [
            sp.random(n, m, density=0.15, random_state=rng, format="csr")
            for _ in range(3)
        ]
        tensors = [Tensor.from_scipy(f"T{i}", M, CSR) for i, M in enumerate(mats)]
        meta = [(t.levels[1].pos.data, t.levels[1].crd.data) for t in tensors]
        counts, _ = spadd3_symbolic(meta, m, 0, n - 1)
        pos = make_pos_region(counts)
        total = int(counts.sum())
        crd = np.zeros(total, dtype=np.int64)
        vals = np.zeros(total)
        full = [
            (t.levels[1].pos.data, t.levels[1].crd.data, t.vals.data) for t in tensors
        ]
        spadd3_fill(full, m, pos.data, crd, vals, 0, n - 1)
        expected = (mats[0] + mats[1] + mats[2]).toarray()
        got = np.zeros((n, m))
        for r in range(n):
            for p in range(pos.data[r, 0], pos.data[r, 1] + 1):
                got[r, crd[p]] = vals[p]
        assert np.allclose(got, expected)

    def test_symbolic_counts_union(self):
        a = Tensor.from_dense("a", np.array([[1.0, 0], [0, 2.0]]), CSR)
        b = Tensor.from_dense("b", np.array([[1.0, 3.0], [0, 0]]), CSR)
        meta = [(t.levels[1].pos.data, t.levels[1].crd.data) for t in (a, b)]
        counts, _ = spadd3_symbolic(meta, 2, 0, 1)
        assert counts.tolist() == [2, 1]

    def test_empty_operands(self):
        a = Tensor.zeros("a", (3, 3), CSR)
        meta = [(a.levels[1].pos.data, a.levels[1].crd.data)]
        counts, _ = spadd3_symbolic(meta, 3, 0, 2)
        assert counts.tolist() == [0, 0, 0]


@pytest.fixture
def csf_case():
    shape = (8, 7, 6)
    idx = [rng.integers(0, s, 120) for s in shape]
    vals = rng.random(120) + 0.5
    T = Tensor.from_coo("T", idx, vals, shape, CSF3)
    return T, T.to_dense()


class TestSpTTV:
    def test_csf3_rows_match_reference(self, csf_case):
        T, dense = csf_case
        x = rng.random(6)
        pos1 = T.levels[1].pos.data
        pos2, crd2 = T.levels[2].pos.data, T.levels[2].crd.data
        nf = T.levels[1].num_positions
        ov = np.zeros(nf)
        run(bind_spttv_csf3_rows(pos1, pos2, crd2, T.vals.data, x, ov,
                                 split(0, 7, 3)))
        ref = np.zeros(nf)
        spttv_reference(pos2, crd2, T.vals.data, x, ref, 0, nf - 1)
        assert np.allclose(ov, ref)

    def test_ddc_rows_match_einsum(self):
        shape = (3, 5, 6)
        idx = [rng.integers(0, s, 60) for s in shape]
        T = Tensor.from_coo("T", idx, rng.random(60) + 0.5, shape, DDC)
        x = rng.random(6)
        ov = np.zeros(15)
        run(bind_spttv_ddc_rows(5, T.levels[2].pos.data, T.levels[2].crd.data,
                                T.vals.data, x, ov, split(0, 2, 2)))
        assert np.allclose(ov.reshape(3, 5), np.einsum("ijk,k->ij", T.to_dense(), x))

    def test_nonzeros_accumulate(self, csf_case):
        # SpTTV's position split is SpMV's over the fiber level.
        T, dense = csf_case
        x = rng.random(6)
        pos2, crd2 = T.levels[2].pos.data, T.levels[2].crd.data
        nf = T.levels[1].num_positions
        expected = np.zeros(nf)
        spttv_reference(pos2, crd2, T.vals.data, x, expected, 0, nf - 1)
        got = np.zeros(nf)
        run(bind_spmv_nonzeros(pos2, crd2, T.vals.data, x, got,
                               split(0, T.nnz - 1, 2)))
        assert np.allclose(got, expected)


def _csf3_arrays(T):
    return (T.levels[1].pos.data, T.levels[1].crd.data,
            T.levels[2].pos.data, T.levels[2].crd.data, T.vals.data)


class TestSpMTTKRP:
    def test_csf3_matches_einsum(self, csf_case):
        T, dense = csf_case
        C = rng.random((7, 4))
        D = rng.random((6, 4))
        expected = np.einsum("ijk,jl,kl->il", dense, C, D)
        for bind, hi in ((bind_spmttkrp_csf3_nonzeros, T.nnz - 1),
                         (bind_spmttkrp_csf3_rows, 7)):
            out = np.zeros((8, 4))
            run(bind(*_csf3_arrays(T), C, D, out, split(0, hi, 3)))
            assert np.allclose(out, expected)

    def test_csf3_matches_reference(self, csf_case):
        T, dense = csf_case
        C = rng.random((7, 3))
        D = rng.random((6, 3))
        a = np.zeros((8, 3))
        b = np.zeros((8, 3))
        run(bind_spmttkrp_csf3_nonzeros(*_csf3_arrays(T), C, D, a, [(0, 10, 60)]))
        spmttkrp_reference(*_csf3_arrays(T), C, D, b, 10, 60)
        assert np.allclose(a, b)

    def test_ddc_variants(self):
        shape = (3, 5, 6)
        idx = [rng.integers(0, s, 60) for s in shape]
        vals = rng.random(60) + 0.5
        T = Tensor.from_coo("T", idx, vals, shape, DDC)
        C = rng.random((5, 4))
        D = rng.random((6, 4))
        expected = np.einsum("ijk,jl,kl->il", T.to_dense(), C, D)
        arrays = (5, T.levels[2].pos.data, T.levels[2].crd.data, T.vals.data)
        for bind, hi in ((bind_spmttkrp_ddc_nonzeros, T.nnz - 1),
                         (bind_spmttkrp_ddc_rows, 2)):
            out = np.zeros((3, 4))
            run(bind(*arrays, C, D, out, split(0, hi, 2)))
            assert np.allclose(out, expected)


# --------------------------------------------------------------------------- #
# bit identity with the per-column bincount / gathered einsum leaves
# --------------------------------------------------------------------------- #
# Frozen copies of the formulas these leaves ran before their reductions
# moved to SciPy's csr_matvecs and their SDDMM phase gathered D along its
# contiguous axis.  The leaves must reproduce them bit for bit: same
# products, each row summed from 0.0 in position order.  Float64 takes
# the compiled reductions; float32 the dtype fallback.
def frozen_reduce(values, rel, nr):
    out = np.empty((nr, values.shape[1]), dtype=values.dtype)
    for col in range(values.shape[1]):
        out[:, col] = np.bincount(rel, weights=values[:, col], minlength=nr)[:nr]
    return out


def frozen_rows_of(pos, p0, p1):
    return row_of_positions(pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64))


def frozen_spmm_nonzeros(pos, crd, vals, C, out, pieces):
    for _, p0, p1 in pieces:
        if p1 < p0:
            continue
        rows = frozen_rows_of(pos, p0, p1)
        r0, nr = rows[0], rows[-1] - rows[0] + 1
        products = vals[p0 : p1 + 1, None] * C[crd[p0 : p1 + 1], :]
        out[r0 : r0 + nr] += frozen_reduce(products, rows - r0, nr)


def frozen_sddmm(pos, crd, vals, C, D, out_vals, pieces):
    for _, p0, p1 in pieces:
        if p1 < p0:
            continue
        rows = frozen_rows_of(pos, p0, p1)
        dots = np.einsum("ij,ij->i", C[rows, :], D.T[crd[p0 : p1 + 1], :])
        out_vals[p0 : p1 + 1] = vals[p0 : p1 + 1] * dots


def frozen_fused_nonzeros(pos, crd, vals, C, D, F, out, pieces):
    scratch = np.zeros_like(vals)
    frozen_sddmm(pos, crd, vals, C, D, scratch, pieces)
    frozen_spmm_nonzeros(pos, crd, scratch, F, out, pieces)


def frozen_fused_rows(pos, crd, vals, C, D, F, out, pieces):
    scratch = np.zeros_like(vals)
    for _, r0, r1 in pieces:
        if r1 < r0:
            continue
        p0, p1 = pos[r0, 0], pos[r1, 1]
        if p1 < p0:
            out[r0 : r1 + 1] = 0.0
            continue
        frozen_sddmm(pos, crd, vals, C, D, scratch, [(0, p0, p1)])
        indptr = np.append(pos[r0 : r1 + 1, 0] - p0, p1 + 1 - p0)
        block = sp.csr_matrix((scratch[p0 : p1 + 1], crd[p0 : p1 + 1], indptr),
                              shape=(r1 - r0 + 1, F.shape[0]))
        out[r0 : r1 + 1] = block @ F


def frozen_mttkrp(ids_of, vals, C, D, out, spans, accumulate):
    for p0, p1 in spans:
        if p1 < p0:
            continue
        i, j, k = ids_of(p0, p1)
        r0, nr = i[0], i[-1] - i[0] + 1
        acc = frozen_reduce(vals[p0 : p1 + 1, None] * C[j, :] * D[k, :], i - r0, nr)
        if accumulate:
            out[r0 : r0 + nr] += acc
        else:
            out[r0 : r0 + nr] = acc


def _wide(shape, dtype=np.float64):
    """Signed values over six decades: a changed summation order shows."""
    return (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)).astype(dtype)


def _shares_boundary_row(pos, pieces):
    """Whether some piece ends inside a row the next piece continues."""
    ends = [p1 for _, p0, p1 in pieces if p1 >= p0][:-1]
    return any(np.ptp(frozen_rows_of(pos, e, e + 1)) == 0 for e in ends)


def _matrix_leaf(name, M, pos, crd, vals):
    """(bind, frozen, out0, inputs) for a CSR leaf over ``M``'s arrays."""
    n, m = M.shape
    dt = vals.dtype
    C, D, F, X = (_wide(shape, dt) for shape in ((n, 5), (5, m), (m, 3), (m, 4)))
    nz = split(0, M.nnz - 1, 4) + [(4, 9, 8)]  # the last piece is empty
    assert _shares_boundary_row(pos, nz)
    # piece 1 is the empty row 3, piece 4 is empty
    rows = [(0, 0, 2), (1, 3, 3), (2, 4, 15), (3, 16, n - 1), (4, 7, 6)]
    if name == "spmm_nonzeros":
        return (lambda o: bind_spmm_nonzeros(pos, crd, vals, X, o, nz),
                lambda o: frozen_spmm_nonzeros(pos, crd, vals, X, o, nz),
                _wide((n, 4), dt), [vals, X])
    if name in ("sddmm_nonzeros", "sddmm_rows"):
        bind, pieces = ((bind_sddmm_nonzeros, nz) if name == "sddmm_nonzeros"
                        else (bind_sddmm_rows, rows))
        positions = nz if pieces is nz else [
            (c, pos[r0, 0], pos[r1, 1]) if r1 >= r0 else (c, 0, -1)
            for c, r0, r1 in rows
        ]
        return (lambda o: bind(pos, crd, vals, C, D, o, pieces),
                lambda o: frozen_sddmm(pos, crd, vals, C, D, o, positions),
                np.zeros(M.nnz, dt), [vals, C, D])
    if name == "fused_nonzeros":
        return (lambda o: bind_fused_sddmm_spmm_nonzeros(pos, crd, vals, C, D, F, o, nz),
                lambda o: frozen_fused_nonzeros(pos, crd, vals, C, D, F, o, nz),
                _wide((n, 3), dt), [vals, C, D, F])
    assert name == "fused_rows"
    return (lambda o: bind_fused_sddmm_spmm_rows(pos, crd, vals, C, D, F, o, rows),
            lambda o: frozen_fused_rows(pos, crd, vals, C, D, F, o, rows),
            _wide((n, 3), dt), [vals, C, D, F])


def _mttkrp_leaf(name, T, dt):
    """(bind, frozen, out0, inputs) for an MTTKRP leaf over 3-tensor ``T``."""
    fmt, strategy = name.split("_")[1:]
    n0, n1, n2 = T.shape
    pos2, crd2 = T.levels[2].pos.data, T.levels[2].crd.data
    vals = T.vals.data.astype(dt, copy=False)
    C, D = _wide((n1, 4), dt), _wide((n2, 4), dt)

    def ids_of(p0, p1):
        positions = np.arange(p0, p1 + 1, dtype=np.int64)
        fibers = row_of_positions(pos2[:, 0], positions)
        if fmt == "ddc":
            return fibers // n1, fibers % n1, crd2[positions]
        pos1, crd1 = T.levels[1].pos.data, T.levels[1].crd.data
        return row_of_positions(pos1[:, 0], fibers), crd1[fibers], crd2[positions]

    def fibers_of(r0, r1):
        if fmt == "ddc":
            return r0 * n1, (r1 + 1) * n1 - 1
        pos1 = T.levels[1].pos.data
        return pos1[r0, 0], pos1[r1, 1]

    arrays = ((n1, pos2, crd2, vals) if fmt == "ddc" else
              (T.levels[1].pos.data, T.levels[1].crd.data, pos2, crd2, vals))
    bind = {
        ("csf3", "rows"): bind_spmttkrp_csf3_rows,
        ("csf3", "nonzeros"): bind_spmttkrp_csf3_nonzeros,
        ("ddc", "rows"): bind_spmttkrp_ddc_rows,
        ("ddc", "nonzeros"): bind_spmttkrp_ddc_nonzeros,
    }[fmt, strategy]
    if strategy == "nonzeros":
        pieces = split(0, T.nnz - 1, 3) + [(3, 9, 8)]
        spans = [(p0, p1) for _, p0, p1 in pieces]
    else:
        pieces = split(0, n0 - 1, 3) + [(3, 2, 1)]
        spans = []
        for _, r0, r1 in pieces:
            f0, f1 = fibers_of(r0, r1) if r1 >= r0 else (0, -1)
            spans.append((pos2[f0, 0], pos2[f1, 1]) if f1 >= f0 else (0, -1))
    accumulate = strategy == "nonzeros"
    return (lambda o: bind(*arrays, C, D, o, pieces),
            lambda o: frozen_mttkrp(ids_of, vals, C, D, o, spans, accumulate),
            _wide((n0, 4), dt), [vals, C, D])


_MATRIX_LEAVES = ("spmm_nonzeros", "sddmm_nonzeros", "sddmm_rows",
                  "fused_nonzeros", "fused_rows")
_MTTKRP_LEAVES = ("mttkrp_csf3_rows", "mttkrp_csf3_nonzeros",
                  "mttkrp_ddc_rows", "mttkrp_ddc_nonzeros")


def _assert_bits_equal(got, expected):
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", _MATRIX_LEAVES + _MTTKRP_LEAVES)
def test_bit_identical_to_frozen_formula(name, dtype, csr_case):
    if name in _MATRIX_LEAVES:
        M, pos, crd, vals = csr_case
        vals = _wide(vals.size, dtype)  # signed values, wide range
        bind, frozen, out0, inputs = _matrix_leaf(name, M, pos, crd, vals)
    else:
        shape = (9, 7, 6)
        idx = [rng.integers(0, s, 150) for s in shape]
        T = Tensor.from_coo("T", idx, _wide(150), shape,
                            DDC if "ddc" in name else CSF3)
        bind, frozen, out0, inputs = _mttkrp_leaf(name, T, dtype)
    got, ref = out0.copy(), out0.copy()
    thunks = bind(got)
    run(thunks)
    frozen(ref)
    _assert_bits_equal(got, ref)
    first = got.copy()
    # In-place writes to every operand reach the bound leaf's next call.
    for a in inputs:
        a[...] = _wide(a.shape)
    got[...] = out0
    ref[...] = out0
    run(thunks)
    frozen(ref)
    _assert_bits_equal(got, ref)
    assert not np.array_equal(got, first)


@pytest.mark.parametrize("name", ["spmm_nonzeros", "mttkrp_csf3_nonzeros",
                                  "mttkrp_ddc_rows"])
def test_complex_dense_operand_raises(name, csr_case):
    # The reductions accept what np.bincount's weights accept: a complex
    # factor raises instead of losing its imaginary parts.
    if name == "spmm_nonzeros":
        M, pos, crd, vals = csr_case
        C = _wide((M.shape[1], 3)) * 1j
        out = np.zeros((M.shape[0], 3), dtype=complex)
        thunks = bind_spmm_nonzeros(pos, crd, vals, C, out, split(0, M.nnz - 1, 2))
    else:
        shape = (9, 7, 6)
        idx = [rng.integers(0, s, 150) for s in shape]
        fmt = DDC if "ddc" in name else CSF3
        T = Tensor.from_coo("T", idx, _wide(150), shape, fmt)
        pos2, crd2, vals = T.levels[2].pos.data, T.levels[2].crd.data, T.vals.data
        C, D = _wide((7, 4)) * 1j, _wide((6, 4))
        out = np.zeros((9, 4), dtype=complex)
        if fmt is DDC:
            thunks = bind_spmttkrp_ddc_rows(7, pos2, crd2, vals, C, D, out,
                                            split(0, 8, 3))
        else:
            thunks = bind_spmttkrp_csf3_nonzeros(
                T.levels[1].pos.data, T.levels[1].crd.data, pos2, crd2, vals,
                C, D, out, split(0, T.nnz - 1, 3),
            )
    with pytest.raises(TypeError):
        run(thunks)
