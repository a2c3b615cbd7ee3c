"""SDDMM leaf kernels: ``A(i,j) = B(i,j) * C(i,k) * D(k,j)``.

The output inherits B's sparsity pattern (paper §V-B), so the leaf writes
only the values array.  The paper uses a non-zero-based algorithm and data
distribution for SDDMM on both CPUs and GPUs — each piece computes an exact
slice of the non-zero positions, which is what makes it perfectly load
balanced regardless of the sparsity structure.  The row-based variant
(used for the schedule ablation) converts its rows to a position range.

This module also holds the fused SDDMM→SpMM leaves the pass pipeline
(:mod:`repro.core.passes`) synthesizes: the SDDMM product lives in a
scratch values array private to the binding and is consumed immediately
by the SpMM phase — it is never a region, never placed, never
communicated.

Every ``bind_*`` leaf returns ``{color: thunk}`` (see
:mod:`repro.kernels.spmv`).

Index notation: ``A(i,j) = B(i,j) * C(i,k) * D(k,j)`` — paper §V-B
(pattern-preserving output), §VI-A (non-zero distribution), Fig. 10/11.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..legion.machine import Work
from .segment import const_thunk, local_row_pointer, row_of_positions, zero_fill_thunk
from .spmm import nonzeros_accumulator

__all__ = [
    "bind_sddmm_rows",
    "bind_sddmm_nonzeros",
    "bind_fused_sddmm_spmm_rows",
    "bind_fused_sddmm_spmm_nonzeros",
    "sddmm_reference",
]

F8 = 8
_CHUNK = 1 << 18  # bound the nnz*k intermediate (be easy on memory)


def _rows_of(pos, p0, p1):
    return row_of_positions(pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64))


def _chunks(rows, crd, vals, out_vals, p0, p1):
    """(row ids, col ids, vals, output slice) per chunk of ``[p0, p1]``."""
    nnz = p1 - p0 + 1
    chunks = []
    for s in range(0, nnz, _CHUNK):
        e = min(s + _CHUNK, nnz)
        chunks.append((
            rows[s:e],
            crd[p0 + s : p0 + e],
            vals[p0 + s : p0 + e],
            out_vals[p0 + s : p0 + e],
        ))
    return chunks


def _run_chunks(chunks, C, D):
    # Gather D's columns along its contiguous axis; the factors may be
    # rewritten in place between calls, so the gather happens per call.
    for rr, cc, vv, oo in chunks:
        Dg = np.ascontiguousarray(D[:, cc].T)
        oo[:] = vv * np.einsum("ij,ij->i", C.take(rr, axis=0), Dg)


def _sddmm_work(nnz, k):
    return Work(2.0 * nnz * k + nnz, float(nnz * (2 * k + 4) * F8))


def _range_thunk(pos, crd, vals, C, D, out_vals, p0, p1):
    chunks = _chunks(_rows_of(pos, p0, p1), crd, vals, out_vals, p0, p1)
    w = _sddmm_work(p1 - p0 + 1, C.shape[1])

    def thunk():
        _run_chunks(chunks, C, D)
        return w
    return thunk


def bind_sddmm_nonzeros(pos, crd, vals, C, D, out_vals, pieces):
    """Output values at positions ``[p0, p1]`` per ``(color, p0, p1)``."""
    thunks = {}
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = const_thunk(Work(0.0, 0.0))
            continue
        thunks[color] = _range_thunk(pos, crd, vals, C, D, out_vals, p0, p1)
    return thunks


def bind_sddmm_rows(pos, crd, vals, C, D, out_vals, pieces):
    """Output values of rows ``[r0, r1]`` per ``(color, r0, r1)`` piece:
    the non-zero leaf over each row range's positions."""
    positions = [
        (color, int(pos[r0, 0]), int(pos[r1, 1])) if r1 >= r0 else (color, 0, -1)
        for color, r0, r1 in pieces
    ]
    return bind_sddmm_nonzeros(pos, crd, vals, C, D, out_vals, positions)


def _fused_work(nnz, k, kf, nr):
    return _sddmm_work(nnz, k) + Work(
        2.0 * nnz * kf, float(nnz * (2 * F8 + F8 * kf) + nr * kf * F8)
    )


def bind_fused_sddmm_spmm_nonzeros(pos, crd, vals, C, D, F, out, pieces):
    """``out += (B ∘ (C @ D)) @ F`` over positions ``[p0, p1]`` per
    ``(color, p0, p1)`` piece, accumulating into aliased output rows."""
    thunks = {}
    scratch = np.zeros_like(vals)
    k, kf = C.shape[1], F.shape[1]
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = const_thunk(Work(0.0, 0.0))
            continue
        nnz = p1 - p0 + 1
        rows = _rows_of(pos, p0, p1)
        chunks = _chunks(rows, crd, vals, scratch, p0, p1)
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        accumulate = nonzeros_accumulator(
            local_row_pointer(rows - r0, nr), crd[p0 : p1 + 1],
            scratch[p0 : p1 + 1], F, out[r0 : r1 + 1, :],
        )
        thunks[color] = _fused_nz_thunk(
            chunks, C, D, accumulate, _fused_work(nnz, k, kf, nr)
        )
    return thunks


def _fused_nz_thunk(chunks, C, D, accumulate, w):
    def thunk():
        _run_chunks(chunks, C, D)
        accumulate()
        return w
    return thunk


def bind_fused_sddmm_spmm_rows(pos, crd, vals, C, D, F, out, pieces):
    """``out = (B ∘ (C @ D)) @ F`` on rows ``[r0, r1]`` per
    ``(color, r0, r1)`` piece."""
    thunks = {}
    scratch = np.zeros_like(vals)
    k, kf = C.shape[1], F.shape[1]
    ncols = F.shape[0]
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = const_thunk(Work(0.0, 0.0))
            continue
        nr = r1 - r0 + 1
        ov = out[r0 : r1 + 1, :]
        p0, p1 = int(pos[r0, 0]), int(pos[r1, 1])
        if p1 < p0:
            # No non-zeros in these rows: the SDDMM phase is empty and the
            # SpMM phase overwrites the output block with zeros.
            thunks[color] = zero_fill_thunk(ov, Work(0.0, float(nr * kf * F8)))
            continue
        nnz = p1 - p0 + 1
        chunks = _chunks(_rows_of(pos, p0, p1), crd, vals, scratch, p0, p1)
        indptr = np.empty(nr + 1, dtype=np.int64)
        indptr[:-1] = pos[r0 : r1 + 1, 0] - p0
        indptr[-1] = nnz
        thunks[color] = _fused_rows_thunk(
            chunks, C, D, scratch[p0 : p1 + 1], crd[p0 : p1 + 1], indptr,
            (nr, ncols), F, ov, _fused_work(nnz, k, kf, nr),
        )
    return thunks


def _fused_rows_thunk(chunks, C, D, sv, sidx, indptr, shape, F, ov, w):
    def thunk():
        _run_chunks(chunks, C, D)
        # The CSR block is rebuilt per execution: its data array is the
        # scratch slice the SDDMM phase just refreshed.
        ov[:, :] = sp.csr_matrix((sv, sidx, indptr), shape=shape) @ F
        return w
    return thunk


def sddmm_reference(pos, crd, vals, C, D, out_vals, p0, p1) -> Work:
    nnz = 0
    starts = pos[:, 0]
    for p in range(p0, p1 + 1):
        i = int(np.searchsorted(starts, p, side="right") - 1)
        j = int(crd[p])
        out_vals[p] = vals[p] * float(C[i, :] @ D[:, j])
        nnz += 1
    k = C.shape[1]
    return Work(flops=2.0 * nnz * k, bytes=float(nnz * (2 * k + 4) * F8))
