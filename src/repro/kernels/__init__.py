"""Leaf kernels executed by the pieces of a distributed computation.

Each specialized (kernel, format, strategy) combination has exactly one
``bind_*`` leaf (the analogue of the generated C++/CUDA or vendor-library
leaf in the paper): it hoists a piece's index scaffolding once and returns
``{color: thunk}`` flat kernels.  The core kernels also keep a straight
loop-nest ``*_reference`` used for cross-validation.  The generic COO
engine covers every tensor algebra expression the specialized kernels do
not match.
"""
from .segment import (
    const_thunk,
    expand_ranges,
    local_row_pointer,
    piece_range,
    reduction_scratch,
    row_of_positions,
    segment_sum,
    segment_sum_rows,
    zero_fill_thunk,
)
from .spmv import bind_spmv_nonzeros, bind_spmv_rows, spmv_rows_reference
from .spmm import bind_spmm_nonzeros, bind_spmm_rows, spmm_rows_reference
from .sddmm import (
    bind_fused_sddmm_spmm_nonzeros,
    bind_fused_sddmm_spmm_rows,
    bind_sddmm_nonzeros,
    bind_sddmm_rows,
    sddmm_reference,
)
from .spadd import spadd3_fill, spadd3_symbolic
from .spttv import bind_spttv_csf3_rows, bind_spttv_ddc_rows, spttv_reference
from .spmttkrp import (
    bind_spmttkrp_csf3_nonzeros,
    bind_spmttkrp_csf3_rows,
    bind_spmttkrp_ddc_nonzeros,
    bind_spmttkrp_ddc_rows,
    spmttkrp_reference,
)
from .generic_coo import CooData, coo_of_access, evaluate_generic, fits_int64, lex_ranks

__all__ = [
    "const_thunk", "expand_ranges", "local_row_pointer", "piece_range",
    "reduction_scratch", "row_of_positions", "segment_sum", "segment_sum_rows",
    "zero_fill_thunk",
    "bind_spmv_nonzeros", "bind_spmv_rows", "spmv_rows_reference",
    "bind_spmm_nonzeros", "bind_spmm_rows", "spmm_rows_reference",
    "bind_sddmm_nonzeros", "bind_sddmm_rows", "sddmm_reference",
    "bind_fused_sddmm_spmm_nonzeros", "bind_fused_sddmm_spmm_rows",
    "spadd3_fill", "spadd3_symbolic",
    "bind_spttv_csf3_rows", "bind_spttv_ddc_rows", "spttv_reference",
    "bind_spmttkrp_csf3_nonzeros", "bind_spmttkrp_csf3_rows",
    "bind_spmttkrp_ddc_nonzeros", "bind_spmttkrp_ddc_rows",
    "spmttkrp_reference",
    "CooData", "coo_of_access", "evaluate_generic", "fits_int64", "lex_ranks",
]
