"""SpMV leaf kernels: ``a(i) = B(i,j) * c(j)`` (paper §II-D).

Two distributed algorithms from the paper:

* **row-based** — each piece owns a contiguous row range of B (universe
  partition of level 0) plus all of ``c``; no reduction needed;
* **non-zero-based** — each piece owns a contiguous range of B's non-zero
  positions (non-zero partition of level 1); pieces that share a boundary
  row reduce into the output.

Each ``bind_*`` leaf takes B's rect-``pos`` CSR arrays and the pieces,
hoists every piece's index scaffolding (local row pointers, position-to-
row maps, frozen :class:`~repro.legion.machine.Work` costs) once, and
returns ``{color: thunk}``: zero-argument kernels that compute their piece
and return the roofline work they performed.

Index notation: ``a(i) = B(i,j) * c(j)`` — paper §II-D (schedules), §VI-A
(CPU/GPU algorithm choice), Fig. 10/11/13 (evaluation).
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from ..legion.machine import Work
from .segment import const_thunk, row_of_positions, segment_sum, zero_fill_thunk

__all__ = ["bind_spmv_rows", "bind_spmv_nonzeros", "spmv_rows_reference"]

F8 = 8  # bytes per float64 / int64


def bind_spmv_rows(pos, crd, vals, c, out, pieces):
    """Rows ``[r0, r1]`` of ``out = B @ c`` per ``(color, r0, r1)`` piece.

    Float64 operands run SciPy's compiled ``csr_matvec`` on views of B's
    arrays through a local row pointer; other dtypes take a ``bincount``
    segment sum.  Both add each row's products in position order from 0.0.
    """
    thunks = {}
    ncols = c.shape[0]
    matvec = all(a.dtype == np.float64 for a in (vals, c, out))
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = const_thunk(Work(0.0, 0.0))
            continue
        nr = r1 - r0 + 1
        s, e = int(pos[r0, 0]), int(pos[r1, 1])
        nnz = e + 1 - s
        ov = out[r0 : r1 + 1]
        if nnz == 0:
            thunks[color] = zero_fill_thunk(ov, Work(0.0, float(nr * F8)))
            continue
        w = Work(2.0 * nnz, float(nnz * 3 * F8 + nr * 2 * F8))
        cc, v = crd[s : e + 1], vals[s : e + 1]
        if matvec:
            indptr = np.empty(nr + 1, dtype=np.int64)
            indptr[:-1] = pos[r0 : r1 + 1, 0] - s
            indptr[-1] = nnz
            thunks[color] = _matvec_thunk(nr, ncols, indptr, cc, v, c, ov, w)
        else:
            lens = np.maximum(pos[r0 : r1 + 1, 1] - pos[r0 : r1 + 1, 0] + 1, 0)
            rows = np.repeat(np.arange(nr, dtype=np.int64), lens)
            thunks[color] = _segment_thunk(rows, nr, cc, v, c, ov, w)
    return thunks


def _matvec_thunk(nr, ncols, indptr, cc, v, c, ov, w):
    def thunk():
        # csr_matvec adds into ov, so each row starts from 0.0.
        ov[...] = 0.0
        _sparsetools.csr_matvec(nr, ncols, indptr, cc, v, c, ov)
        return w
    return thunk


def _segment_thunk(rows, nr, cc, v, c, ov, w):
    def thunk():
        ov[...] = segment_sum(v * c[cc], rows, nr)
        return w
    return thunk


def bind_spmv_nonzeros(pos, crd, vals, c, out, pieces):
    """Accumulate positions ``[p0, p1]`` per ``(color, p0, p1)`` piece into
    the (possibly aliased) output rows."""
    thunks = {}
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = const_thunk(Work(0.0, 0.0))
            continue
        nnz = p1 - p0 + 1
        rows = row_of_positions(pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64))
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        w = Work(2.0 * nnz, float(nnz * 3 * F8 + nr * 2 * F8))
        thunks[color] = _accumulate_thunk(
            vals[p0 : p1 + 1], crd[p0 : p1 + 1], c, rows - r0, nr,
            out[r0 : r1 + 1], w,
        )
    return thunks


def _accumulate_thunk(v, cc, c, rel, nr, ov, w):
    def thunk():
        np.add(ov, segment_sum(v * c[cc], rel, nr), out=ov)
        return w
    return thunk


def spmv_rows_reference(
    pos: np.ndarray,
    crd: np.ndarray,
    vals: np.ndarray,
    c: np.ndarray,
    out: np.ndarray,
    r0: int,
    r1: int,
) -> Work:
    """The straight-line loop nest the compiler's pseudo-code emits (Fig. 9b).

    Kept as the cross-validation reference for the vectorized kernels.
    """
    nnz = 0
    for i in range(r0, r1 + 1):
        acc = 0.0
        for p in range(pos[i, 0], pos[i, 1] + 1):
            acc += vals[p] * c[crd[p]]
            nnz += 1
        out[i] = acc
    return Work(flops=2.0 * nnz, bytes=float(nnz * 3 * F8))
