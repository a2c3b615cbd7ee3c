"""SpTTV leaf kernels: ``A(i,j) = B(i,j,k) * c(k)``.

The output keeps B's (i, j) pattern (paper §V-B): for CSF B, ``A`` is a CSR
matrix sharing B's first two levels; for the DDC ("patents") format the
(i, j) fiber space is dense and ``A`` is a dense matrix.  Either way the
leaf reduces each fiber's positions against ``c`` — which is SpMV over
B's fiber level: the fibers play SpMV's rows, ``pos2``/``crd2`` its CSR
arrays.  The row-based leaves therefore resolve each piece's rows to a
fiber range at bind time (through ``pos1`` for CSF, arithmetically for
DDC) and bind :func:`~repro.kernels.spmv.bind_spmv_rows` over it; a
non-zero split binds :func:`~repro.kernels.spmv.bind_spmv_nonzeros` over
the fiber level directly.

Index notation: ``A(i,j) = B(i,j,k) * c(k)`` — paper §V-B (pattern
preservation), §VI-A (higher-order kernels), Fig. 10/12 (evaluation).
"""
from __future__ import annotations

from ..legion.machine import Work
from .spmv import bind_spmv_rows

__all__ = ["bind_spttv_csf3_rows", "bind_spttv_ddc_rows", "spttv_reference"]

F8 = 8


def bind_spttv_csf3_rows(pos1, pos2, crd2, vals, c, out_vals, pieces):
    """Rows ``[r0, r1]`` of a CSF3 B per ``(color, r0, r1)`` piece."""
    fibers = [
        (color, int(pos1[r0, 0]), int(pos1[r1, 1])) if r1 >= r0 else (color, 0, -1)
        for color, r0, r1 in pieces
    ]
    return bind_spmv_rows(pos2, crd2, vals, c, out_vals, fibers)


def bind_spttv_ddc_rows(n1, pos2, crd2, vals, c, out_vals, pieces):
    """Rows ``[r0, r1]`` of a DDC B (``n1`` dense fibers per row) per
    ``(color, r0, r1)`` piece."""
    fibers = [(color, r0 * n1, (r1 + 1) * n1 - 1) for color, r0, r1 in pieces]
    return bind_spmv_rows(pos2, crd2, vals, c, out_vals, fibers)


def spttv_reference(pos2, crd2, vals, c, out_vals, f0, f1) -> Work:
    nnz = 0
    for f in range(f0, f1 + 1):
        acc = 0.0
        for p in range(pos2[f, 0], pos2[f, 1] + 1):
            acc += vals[p] * c[crd2[p]]
            nnz += 1
        out_vals[f] = acc
    return Work(flops=2.0 * nnz, bytes=float(nnz * 3 * F8))
