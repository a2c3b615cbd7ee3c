"""SpMM leaf kernels: ``A(i,j) = B(i,k) * C(k,j)`` with sparse B, dense C.

The row-based piece uses the schedule of Senanayake et al. for the leaf
(tight CSR traversal — realized here as a per-piece SciPy CSR matmul, the
moral equivalent of the vendor kernel the paper calls at the leaves).  The
2-D ``grid`` strategy reuses it on a column block of C and the output.
The non-zero-based piece (the GPU schedule) balances positions exactly but
replicates C and reduces aliased output rows.

Both ``bind_*`` leaves hoist each piece's scaffolding (local CSR blocks,
position-to-row maps, frozen :class:`~repro.legion.machine.Work` costs) at
bind time and return ``{color: thunk}`` (see :mod:`repro.kernels.spmv`).

Index notation: ``A(i,j) = B(i,k) * C(k,j)`` — paper §VI-A (algorithms,
including the memory-conserving "SpDISTAL-Batched" variant), Fig. 10/11
(evaluation).
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..legion.machine import Work
from .segment import const_thunk, row_of_positions, segment_sum_matrix

__all__ = ["bind_spmm_rows", "bind_spmm_nonzeros", "spmm_rows_reference"]

F8 = 8


def bind_spmm_rows(pos, crd, vals, C, out, pieces):
    """Output rows ``[r0, r1]`` of ``A = B @ C`` per ``(color, r0, r1, cols)``
    piece; ``cols`` is an inclusive column block of C and A, or None."""
    thunks = {}
    ncols = C.shape[0]
    for color, r0, r1, cols in pieces:
        if r1 < r0:
            thunks[color] = const_thunk(Work(0.0, 0.0))
            continue
        Cv = C if cols is None else C[:, cols[0] : cols[1] + 1]
        Ov = out if cols is None else out[:, cols[0] : cols[1] + 1]
        k = Cv.shape[1]
        nr = r1 - r0 + 1
        s, e = int(pos[r0, 0]), int(pos[r1, 1])
        nnz = e + 1 - s
        indptr = np.empty(nr + 1, dtype=np.int64)
        indptr[:-1] = pos[r0 : r1 + 1, 0] - s
        indptr[-1] = nnz
        v = vals[s : e + 1]
        block = sp.csr_matrix((v, crd[s : e + 1], indptr), shape=(nr, ncols))
        # The constructor copies a slice under half its base; re-point the
        # block at the view so in-place value writes reach the leaf.
        block.data = v
        w = Work(2.0 * nnz * k, float(nnz * (2 * F8 + F8 * k) + nr * k * F8))
        thunks[color] = _block_thunk(block, Cv, Ov[r0 : r1 + 1, :], w)
    return thunks


def _block_thunk(block, Cv, ov, w):
    def thunk():
        ov[:, :] = block @ Cv
        return w
    return thunk


def bind_spmm_nonzeros(pos, crd, vals, C, out, pieces):
    """Accumulate positions ``[p0, p1]`` per ``(color, p0, p1)`` piece into
    the (aliased) output rows."""
    thunks = {}
    k = C.shape[1]
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = const_thunk(Work(0.0, 0.0))
            continue
        nnz = p1 - p0 + 1
        rows = row_of_positions(pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64))
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        w = Work(2.0 * nnz * k, float(nnz * (2 * F8 + F8 * k) + nr * k * F8))
        thunks[color] = _accumulate_thunk(
            vals[p0 : p1 + 1], crd[p0 : p1 + 1], C, rows - r0, nr,
            out[r0 : r1 + 1, :], w,
        )
    return thunks


def _accumulate_thunk(v, cols, C, rel, nr, ov, w):
    def thunk():
        np.add(ov, segment_sum_matrix(v[:, None] * C[cols, :], rel, nr), out=ov)
        return w
    return thunk


def spmm_rows_reference(pos, crd, vals, C, out, r0, r1) -> Work:
    """Loop-nest reference for cross-validation."""
    nnz = 0
    k = C.shape[1]
    for i in range(r0, r1 + 1):
        acc = np.zeros(k)
        for p in range(pos[i, 0], pos[i, 1] + 1):
            acc += vals[p] * C[crd[p], :]
            nnz += 1
        out[i, :] = acc
    return Work(flops=2.0 * nnz * k, bytes=float(nnz * (2 + k) * F8))
