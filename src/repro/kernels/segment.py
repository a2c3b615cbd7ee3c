"""Segment primitives shared by the vectorized leaf kernels.

All leaf kernels operate on contiguous position ranges of the SpDISTAL
rect-``pos`` encoding; these helpers map positions to owning rows, expand
rect ranges to position lists, and perform segmented reductions without
Python-level loops (guide: vectorize, avoid copies).  The two thunk
helpers build the trivial per-piece kernels every ``bind_*`` leaf shares.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse import _sparsetools

__all__ = [
    "row_of_positions",
    "expand_ranges",
    "segment_sum",
    "local_row_pointer",
    "reduction_scratch",
    "segment_sum_rows",
    "piece_range",
    "const_thunk",
    "zero_fill_thunk",
]


def piece_range(extent: int, pieces: int, color: int) -> Tuple[int, int]:
    """Inclusive [lo, hi] chunk bounds used by divide (Fig. 9b convention)."""
    chunk = -(-extent // pieces) if extent else 0
    lo = color * chunk
    hi = min((color + 1) * chunk, extent) - 1
    return lo, hi


def row_of_positions(starts: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Owning parent entry of each position, given monotone range starts.

    ``starts`` is ``pos[:, 0]`` of a canonically packed level: empty entries
    share their successor's start, so the last entry with ``start <= p``
    (``searchsorted right - 1``) is the non-empty owner of position ``p``.
    """
    return np.searchsorted(starts, positions, side="right") - 1


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenate the positions of inclusive ranges ``[lo_i, hi_i]``.

    Vectorized: builds the result with one cumulative sum rather than a
    Python loop over ranges.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    lens = np.maximum(hi - lo + 1, 0)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    keep = lens > 0
    lo, lens = lo[keep], lens[keep]
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lens)
    out[0] = lo[0]
    out[ends[:-1]] = lo[1:] - (lo[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


def segment_sum(values: np.ndarray, seg_ids: np.ndarray, nseg: int) -> np.ndarray:
    """Sum ``values`` into ``nseg`` buckets keyed by ``seg_ids``."""
    return np.bincount(seg_ids, weights=values, minlength=nseg)[:nseg]


def local_row_pointer(rel: np.ndarray, nr: int) -> np.ndarray:
    """The ``int64`` CSR row pointer of ``nr`` segments, given the sorted
    local segment id ``rel`` of every position."""
    indptr = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(np.bincount(rel, minlength=nr), out=indptr[1:])
    return indptr


def reduction_scratch(spans) -> Tuple[np.ndarray, np.ndarray]:
    """The float64 ones and ``int64`` ``arange`` that :func:`segment_sum_rows`
    reads, sized to the largest inclusive ``(p0, p1)`` span: one pair serves
    every piece of a leaf."""
    n = max((p1 - p0 + 1 for p0, p1 in spans), default=0)
    return np.ones(n), np.arange(n, dtype=np.int64)


def segment_sum_rows(
    values: np.ndarray, indptr: np.ndarray, ones: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Row-wise segmented sum of an ``(n, k)`` matrix whose rows are sorted
    by segment into ``(len(indptr) - 1, k)``.

    SciPy's compiled ``csr_matvecs`` multiplies a ones/``arange`` CSR
    matrix (``ones`` and ``index`` from :func:`reduction_scratch`) by
    ``values`` in float64: each segment sums its rows from 0.0 in order,
    exactly as a per-column ``np.bincount`` does.  The result has
    ``values.dtype``.  Like ``np.bincount``'s weights, ``values`` must cast
    safely to float64: complex values raise ``TypeError``.
    """
    n, k = values.shape
    nseg = indptr.size - 1
    acc = np.zeros((nseg, k))
    weights = np.ascontiguousarray(values.astype(np.float64, casting="safe", copy=False))
    _sparsetools.csr_matvecs(nseg, n, k, indptr, index[:n], ones[:n], weights, acc)
    return acc.astype(values.dtype, copy=False)


def const_thunk(w):
    """A piece kernel with nothing to compute: returns ``w``."""
    def thunk():
        return w
    return thunk


def zero_fill_thunk(ov: np.ndarray, w):
    """A piece kernel whose rows hold no non-zeros: zeroes ``ov``."""
    def thunk():
        ov[...] = 0.0
        return w
    return thunk
