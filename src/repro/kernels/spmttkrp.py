"""SpMTTKRP leaf kernels: ``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)``.

For CSF B the fiber level supplies ``j`` (via ``crd1``) and the leaf level
``k`` (via ``crd2``); for the DDC "patents" format the (i, j) fiber space
is dense, so ``j = fiber % n1`` and ``i = fiber // n1``.  The row-based
variant owns disjoint ``i`` ranges (resolved rows → fibers → positions at
bind time) and overwrites them; the non-zero-based variant splits leaf
positions exactly and reduces aliased output rows (the GPU schedule in the
paper, which wins through load balance).

Every ``bind_*`` leaf returns ``{color: thunk}`` (see
:mod:`repro.kernels.spmv`).

Index notation: ``A(i,l) = B(i,j,k) * C(j,l) * D(k,l)`` — paper §VI-A
(higher-order kernels), Fig. 10/12 (evaluation).
"""
from __future__ import annotations

import numpy as np

from ..legion.machine import Work
from .segment import (
    const_thunk,
    local_row_pointer,
    reduction_scratch,
    row_of_positions,
    segment_sum_rows,
)

__all__ = [
    "bind_spmttkrp_csf3_rows",
    "bind_spmttkrp_ddc_rows",
    "bind_spmttkrp_csf3_nonzeros",
    "bind_spmttkrp_ddc_nonzeros",
    "spmttkrp_reference",
]

F8 = 8


def _csf3_ids(pos1, crd1, pos2, crd2, p0, p1):
    positions = np.arange(p0, p1 + 1, dtype=np.int64)
    fibers = row_of_positions(pos2[:, 0], positions)
    return row_of_positions(pos1[:, 0], fibers), crd1[fibers], crd2[positions]


def _ddc_ids(n1, pos2, crd2, p0, p1):
    positions = np.arange(p0, p1 + 1, dtype=np.int64)
    fibers = row_of_positions(pos2[:, 0], positions)
    return fibers // n1, fibers % n1, crd2[positions]


def _body_thunk(ids, v, C, D, out, accumulate, scratch):
    """Reduce ``v * C[j] * D[k]`` into the output rows the ids span."""
    i_ids, j_ids, k_ids = ids
    nnz = v.size
    l = C.shape[1]
    r0, r1 = int(i_ids[0]), int(i_ids[-1])
    nr = r1 - r0 + 1
    indptr = local_row_pointer(i_ids - r0, nr)
    ov = out[r0 : r1 + 1, :]
    w = Work(3.0 * nnz * l, float(nnz * (2 * l + 3) * F8 + nr * l * F8))
    # One dtype: the products are formed in place in the gathered C rows.
    inplace = v.dtype == C.dtype == D.dtype
    vcol = v[:, None]

    def thunk():
        P = C.take(j_ids, axis=0)
        if inplace:
            np.multiply(P, vcol, out=P)
            np.multiply(P, D.take(k_ids, axis=0), out=P)
        else:
            P = vcol * P * D.take(k_ids, axis=0)
        acc = segment_sum_rows(P, indptr, *scratch)
        if accumulate:
            np.add(ov, acc, out=ov)
        else:
            ov[:, :] = acc
        return w
    return thunk


def _bind_rows(fibers_of_rows, ids_of, pos2, vals, C, D, out, pieces):
    spans = {}
    for color, r0, r1 in pieces:
        f0, f1 = fibers_of_rows(r0, r1) if r1 >= r0 else (0, -1)
        spans[color] = (int(pos2[f0, 0]), int(pos2[f1, 1])) if f1 >= f0 else (0, -1)
    scratch = reduction_scratch(spans.values())
    return {
        color: _body_thunk(ids_of(p0, p1), vals[p0 : p1 + 1], C, D, out, False, scratch)
        if p1 >= p0 else const_thunk(Work(0.0, 0.0))
        for color, (p0, p1) in spans.items()
    }


def _bind_nonzeros(ids_of, vals, C, D, out, pieces):
    scratch = reduction_scratch((p0, p1) for _, p0, p1 in pieces)
    return {
        color: _body_thunk(ids_of(p0, p1), vals[p0 : p1 + 1], C, D, out, True, scratch)
        if p1 >= p0 else const_thunk(Work(0.0, 0.0))
        for color, p0, p1 in pieces
    }


def bind_spmttkrp_csf3_rows(pos1, crd1, pos2, crd2, vals, C, D, out, pieces):
    """Rows ``[r0, r1]`` of a CSF3 B per ``(color, r0, r1)`` piece."""
    return _bind_rows(
        lambda r0, r1: (int(pos1[r0, 0]), int(pos1[r1, 1])),
        lambda p0, p1: _csf3_ids(pos1, crd1, pos2, crd2, p0, p1),
        pos2, vals, C, D, out, pieces,
    )


def bind_spmttkrp_ddc_rows(n1, pos2, crd2, vals, C, D, out, pieces):
    """Rows ``[r0, r1]`` of a DDC B (``n1`` dense fibers per row) per
    ``(color, r0, r1)`` piece."""
    return _bind_rows(
        lambda r0, r1: (r0 * n1, (r1 + 1) * n1 - 1),
        lambda p0, p1: _ddc_ids(n1, pos2, crd2, p0, p1),
        pos2, vals, C, D, out, pieces,
    )


def bind_spmttkrp_csf3_nonzeros(pos1, crd1, pos2, crd2, vals, C, D, out, pieces):
    """Accumulate leaf positions ``[p0, p1]`` of a CSF3 B per
    ``(color, p0, p1)`` piece into aliased output rows."""
    return _bind_nonzeros(
        lambda p0, p1: _csf3_ids(pos1, crd1, pos2, crd2, p0, p1),
        vals, C, D, out, pieces,
    )


def bind_spmttkrp_ddc_nonzeros(n1, pos2, crd2, vals, C, D, out, pieces):
    """Accumulate leaf positions ``[p0, p1]`` of a DDC B per
    ``(color, p0, p1)`` piece into aliased output rows."""
    return _bind_nonzeros(
        lambda p0, p1: _ddc_ids(n1, pos2, crd2, p0, p1),
        vals, C, D, out, pieces,
    )


def spmttkrp_reference(pos1, crd1, pos2, crd2, vals, C, D, out, p0, p1) -> Work:
    nnz = 0
    f_starts = pos2[:, 0]
    i_starts = pos1[:, 0]
    for p in range(p0, p1 + 1):
        f = int(np.searchsorted(f_starts, p, side="right") - 1)
        i = int(np.searchsorted(i_starts, f, side="right") - 1)
        j = int(crd1[f])
        k = int(crd2[p])
        out[i, :] += vals[p] * C[j, :] * D[k, :]
        nnz += 1
    l = C.shape[1]
    return Work(flops=3.0 * nnz * l, bytes=float(nnz * (2 * l + 3) * F8))
