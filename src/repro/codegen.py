"""Specialized leaf dispatch: bind a compiled kernel to its leaf kernel.

TACO, and through it SpDISTAL, specializes each leaf per level format
(Chou et al., *Format Abstraction for Sparse Tensor Algebra Compilers*).
Here that specialization is a fixed family of ``bind_*`` functions in
:mod:`repro.kernels`, one per (kernel class, format class, strategy).
:func:`leaf_for` picks the one a :class:`~repro.core.compiler.CompiledKernel`
needs, hands it the kernel's raw arrays and piece bounds, and returns a
``leaf(piece)`` callable over the resulting ``{color: thunk}`` table, so
every piece of index scaffolding is hoisted out of the execution path.

The format class of the sparse operand decides which leaf applies:
``"csr"`` for a row-major {Dense, Compressed} matrix, ``"csf3"`` for a
{Dense, Compressed, Compressed} 3-tensor and ``"ddc"`` for a
{Dense, Dense, Compressed} one.  Any other layout (CSC's permuted mode
ordering included) has no specialized leaf; the compiler classifies such
statements as generic (see :func:`repro.core.compiler.classify`).
"""
from __future__ import annotations

from typing import Callable, Optional

from . import kernels as K
from .taco.tensor import CompressedLevel, Tensor

__all__ = ["format_class", "leaf_for"]


def format_class(tensor: Tensor) -> Optional[str]:
    """The leaf format class of a sparse operand, or None."""
    levels = getattr(tensor, "levels", None)
    if not levels or not levels[0].is_dense:
        return None
    # The leaves index levels positionally as row-major storage; permuted
    # layouts (e.g. CSC's (1, 0)) read as CSR would compute wrong values.
    if tensor.format.mode_ordering != tuple(range(tensor.order)):
        return None
    if not isinstance(levels[-1], CompressedLevel):
        return None
    if tensor.order == 2:
        return "csr"
    if tensor.order == 3:
        return "csf3" if isinstance(levels[1], CompressedLevel) else "ddc"
    return None


def leaf_for(ck) -> Callable:
    """The bound specialized leaf of a non-generic compiled kernel ``ck``."""
    thunks = _bind(ck)

    def leaf(piece, _thunks=thunks):
        return _thunks[piece.color]()

    return leaf


def _row_pieces(ck):
    return [(p.color, p.rows[0], p.rows[1]) for p in ck.pieces]


def _pos_pieces(ck):
    return [(p.color, p.pos[0], p.pos[1]) for p in ck.pieces]


def _bind(ck):
    """Call ``ck``'s ``bind_*`` leaf with its raw arrays and pieces.

    A ``grid`` split reaches the row leaves of every kind but SpMM with
    each tile's row block: only SpMM's leaf also takes a column block.
    """
    kind, nonzeros = ck.kind, ck.strategy == "nonzeros"
    pieces = _pos_pieces(ck) if nonzeros else _row_pieces(ck)
    B = ck.roles["B"].tensor

    def dense(role):
        return ck.roles[role].tensor.dense_array()

    if kind in ("spmv", "spmm", "sddmm", "fused_sddmm_spmm"):
        pos, crd, vals = B.csr_arrays()
    if kind == "spmv":
        bind = K.bind_spmv_nonzeros if nonzeros else K.bind_spmv_rows
        return bind(pos, crd, vals, dense("c"), ck.out.vals.data, pieces)
    if kind == "spmm":
        if nonzeros:
            bind = K.bind_spmm_nonzeros
        else:
            bind = K.bind_spmm_rows
            pieces = [(p.color, p.rows[0], p.rows[1], p.cols) for p in ck.pieces]
        return bind(pos, crd, vals, dense("C"), ck.out.dense_array(), pieces)
    if kind == "sddmm":
        bind = K.bind_sddmm_nonzeros if nonzeros else K.bind_sddmm_rows
        return bind(pos, crd, vals, dense("C"), dense("D"), ck.out.vals.data, pieces)
    if kind == "fused_sddmm_spmm":
        bind = (K.bind_fused_sddmm_spmm_nonzeros if nonzeros
                else K.bind_fused_sddmm_spmm_rows)
        return bind(pos, crd, vals, dense("C"), dense("D"), dense("F"),
                    ck.out.dense_array(), pieces)
    lvl1, lvl2 = B.levels[1], B.levels[2]
    csf3 = format_class(B) == "csf3"
    if kind == "spttv":
        fiber_args = (lvl2.pos.data, lvl2.crd.data, B.vals.data, dense("c"),
                      ck.out.vals.data.reshape(-1), pieces)
        if nonzeros:
            # A position split of B's leaf level is SpMV's position split,
            # with the fibers as rows (see repro.kernels.spttv).
            return K.bind_spmv_nonzeros(*fiber_args)
        if csf3:
            return K.bind_spttv_csf3_rows(lvl1.pos.data, *fiber_args)
        return K.bind_spttv_ddc_rows(lvl1.size, *fiber_args)
    if kind == "spmttkrp":
        tail = (lvl2.pos.data, lvl2.crd.data, B.vals.data, dense("C"),
                dense("D"), ck.out.dense_array(), pieces)
        if csf3:
            bind = (K.bind_spmttkrp_csf3_nonzeros if nonzeros
                    else K.bind_spmttkrp_csf3_rows)
            return bind(lvl1.pos.data, lvl1.crd.data, *tail)
        bind = (K.bind_spmttkrp_ddc_nonzeros if nonzeros
                else K.bind_spmttkrp_ddc_rows)
        return bind(lvl1.size, *tail)
    raise AssertionError(f"no specialized leaf for kernel class {kind!r}")
