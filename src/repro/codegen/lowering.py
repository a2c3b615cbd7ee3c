"""Lowering templates: emit specialized NumPy kernel modules as source.

Each supported (kernel × format × strategy) combination lowers to a
standalone Python module whose ``bind(...)`` function hoists every piece
of index scaffolding — position slices, ``searchsorted`` row maps,
``repeat`` segment ids, local CSR blocks, frozen :class:`Work` costs —
out of the execution path at bind time and returns a ``{color: thunk}``
dict of flat, zero-argument array kernels.  The thunks intentionally use
the *identical* accumulation primitives as the interpreter leaves in
``repro.kernels`` (``np.bincount`` segment sums, scipy CSR ``@``,
``np.einsum`` row dots), so generated results and simulated ``Work``
costs are bit-identical to the interpreter — only the per-call Python
scaffolding disappears.

The one exception is the SpMV ``rows`` leaf, which calls SciPy's
compiled ``_sparsetools.csr_matvec`` on views of B's regions instead of
``np.bincount``.  It is still bit-identical: each row starts from 0.0
and adds ``vals[p] * c[crd[p]]`` in position order, the same products
in the same order as the interpreter's segment sum.

The emitted source is self-contained (imports ``numpy`` and, where the
template needs it, ``scipy.sparse`` or its ``_sparsetools``) and carries
a ``META`` dict so a module dumped via ``REPRO_CODEGEN_DUMP`` or persisted
in the :class:`~repro.core.store_index.ArtifactStore` is self-describing.
"""
from __future__ import annotations

from typing import Dict, Tuple

#: bytes per float64 element — mirrors ``repro.kernels.F8``.
_F8 = 8

_HEADER = '''\
"""Generated by repro.codegen — specialized {kind} leaf ({fmt}, {strategy}).

Auto-generated module; do not edit.  ``bind(...)`` hoists index
scaffolding at bind time and returns ``{{color: thunk}}`` flat kernels
whose accumulation ops match the interpreter leaves bit-for-bit.
"""
import numpy as np
{extra_imports}
META = {{
    "generator": "repro.codegen",
    "version": 1,
    "kind": "{kind}",
    "format": "{fmt}",
    "strategy": "{strategy}",
}}


def _const(w):
    def thunk():
        return w
    return thunk


def _fill_zero(ov, w):
    def thunk():
        ov[...] = 0.0
        return w
    return thunk

'''

_SPMV_ROWS = '''
def bind(pos, crd, vals, c, out, pieces, Work):
    """Build a local CSR row pointer per piece; return {color: thunk}."""
    thunks = {}
    ncols = c.shape[0]
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        nr = r1 - r0 + 1
        s, e = int(pos[r0, 0]), int(pos[r1, 1])
        nnz = e + 1 - s
        ov = out[r0 : r1 + 1]
        if nnz == 0:
            thunks[color] = _fill_zero(ov, Work(0.0, float(nr * 8)))
            continue
        indptr = np.empty(nr + 1, dtype=np.int64)
        indptr[:-1] = pos[r0 : r1 + 1, 0] - s
        indptr[-1] = nnz
        w = Work(2.0 * nnz, float(nnz * 3 * 8 + nr * 2 * 8))
        thunks[color] = _rows_thunk(
            nr, ncols, indptr, crd[s : e + 1], vals[s : e + 1], c, ov, w
        )
    return thunks


def _rows_thunk(nr, ncols, indptr, cc, v, c, ov, w):
    def thunk():
        # csr_matvec adds into ov; from 0.0 each row sums its products in
        # position order, the same adds as np.bincount's segment sum.
        ov[...] = 0.0
        _sparsetools.csr_matvec(nr, ncols, indptr, cc, v, c, ov)
        return w
    return thunk
'''

_SPMV_NONZEROS = '''
def bind(pos, crd, vals, c, out, pieces, Work):
    """Hoist per-piece position scaffolding; return {color: thunk}."""
    thunks = {}
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        nnz = p1 - p0 + 1
        v = vals[p0 : p1 + 1]
        cc = crd[p0 : p1 + 1]
        rows = np.searchsorted(
            pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
        ) - 1
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        rel = rows - r0
        ov = out[r0 : r1 + 1]
        w = Work(2.0 * nnz, float(nnz * 3 * 8 + nr * 2 * 8))
        thunks[color] = _nz_thunk(v, cc, c, rel, nr, ov, w)
    return thunks


def _nz_thunk(v, cc, c, rel, nr, ov, w):
    def thunk():
        np.add(ov, np.bincount(rel, weights=v * c[cc], minlength=nr)[:nr], out=ov)
        return w
    return thunk
'''

_SPMM_ROWS = '''
def bind(pos, crd, vals, C, out, pieces, Work):
    """Hoist local CSR blocks per piece; return {color: thunk}."""
    thunks = {}
    ncols = C.shape[0]
    for color, r0, r1, cols in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        Cv = C if cols is None else C[:, cols[0] : cols[1] + 1]
        Ov = out if cols is None else out[:, cols[0] : cols[1] + 1]
        k = Cv.shape[1]
        s, e = int(pos[r0, 0]), int(pos[r1, 1])
        nnz = e + 1 - s
        indptr = np.empty(r1 - r0 + 2, dtype=np.int64)
        indptr[:-1] = pos[r0 : r1 + 1, 0] - s
        indptr[-1] = e + 1 - s
        v = vals[s : e + 1]
        block = sp.csr_matrix((v, crd[s : e + 1], indptr), shape=(r1 - r0 + 1, ncols))
        # The constructor copies a slice under half its base; re-point the
        # block at the view so in-place value writes reach the leaf.
        block.data = v
        ov = Ov[r0 : r1 + 1, :]
        w = Work(
            2.0 * nnz * k,
            float(nnz * (2 * 8 + 8 * k) + (r1 - r0 + 1) * k * 8),
        )
        thunks[color] = _rows_thunk(block, Cv, ov, w)
    return thunks


def _rows_thunk(block, Cv, ov, w):
    def thunk():
        ov[:, :] = block @ Cv
        return w
    return thunk
'''

_SPMM_NONZEROS = '''
def bind(pos, crd, vals, C, out, pieces, Work):
    """Hoist position/row scaffolding per piece; return {color: thunk}."""
    thunks = {}
    k = C.shape[1]
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        nnz = p1 - p0 + 1
        cols = crd[p0 : p1 + 1]
        v = vals[p0 : p1 + 1]
        rows = np.searchsorted(
            pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
        ) - 1
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        rel = rows - r0
        ov = out[r0 : r1 + 1, :]
        w = Work(
            2.0 * nnz * k,
            float(nnz * (2 * 8 + 8 * k) + nr * k * 8),
        )
        thunks[color] = _nz_thunk(v, cols, C, rel, nr, k, ov, w)
    return thunks


def _nz_thunk(v, cols, C, rel, nr, k, ov, w):
    def thunk():
        prods = v[:, None] * C[cols, :]
        acc = np.empty((nr, k), dtype=prods.dtype)
        for col in range(k):
            acc[:, col] = np.bincount(
                rel, weights=prods[:, col], minlength=nr
            )[:nr]
        np.add(ov, acc, out=ov)
        return w
    return thunk
'''

_SDDMM_COMMON = '''
_CHUNK = 1 << 18


def _range_thunk(pos, crd, vals, C, Dt, out_vals, p0, p1, k, Work):
    nnz = p1 - p0 + 1
    rows = np.searchsorted(
        pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
    ) - 1
    chunks = []
    for s in range(0, nnz, _CHUNK):
        e = min(s + _CHUNK, nnz)
        chunks.append((
            rows[s:e],
            crd[p0 + s : p0 + e],
            vals[p0 + s : p0 + e],
            out_vals[p0 + s : p0 + e],
        ))
    w = Work(2.0 * nnz * k + nnz, float(nnz * (2 * k + 4) * 8))

    def thunk():
        for rr, cc, vv, oo in chunks:
            dots = np.einsum("ij,ij->i", C[rr, :], Dt[cc, :])
            oo[:] = vv * dots
        return w
    return thunk
'''

_SDDMM_ROWS = _SDDMM_COMMON + '''

def bind(pos, crd, vals, C, D, out_vals, pieces, Work):
    """Convert row bounds to position ranges at bind; return {color: thunk}."""
    thunks = {}
    Dt = D.T
    k = C.shape[1]
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        p0, p1 = int(pos[r0, 0]), int(pos[r1, 1])
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        thunks[color] = _range_thunk(pos, crd, vals, C, Dt, out_vals, p0, p1, k, Work)
    return thunks
'''

_SDDMM_NONZEROS = _SDDMM_COMMON + '''

def bind(pos, crd, vals, C, D, out_vals, pieces, Work):
    """Hoist chunked row/col gathers per piece; return {color: thunk}."""
    thunks = {}
    Dt = D.T
    k = C.shape[1]
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        thunks[color] = _range_thunk(pos, crd, vals, C, Dt, out_vals, p0, p1, k, Work)
    return thunks
'''

_FUSED_SDDMM_SPMM_COMMON = '''
_CHUNK = 1 << 18


def _sddmm_chunks(rows, crd, vals, scratch, p0, p1):
    """Chunked (row-gather, col-gather, vals, scratch-slice) tuples for the
    SDDMM phase — same chunking as the standalone sddmm templates."""
    nnz = p1 - p0 + 1
    chunks = []
    for s in range(0, nnz, _CHUNK):
        e = min(s + _CHUNK, nnz)
        chunks.append((
            rows[s:e],
            crd[p0 + s : p0 + e],
            vals[p0 + s : p0 + e],
            scratch[p0 + s : p0 + e],
        ))
    return chunks
'''

_FUSED_SDDMM_SPMM_NONZEROS = _FUSED_SDDMM_SPMM_COMMON + '''

def bind(pos, crd, vals, C, D, F, out, pieces, Work):
    """Hoist both phases' scaffolding; the SDDMM product lives in a scratch
    values array private to this binding — never a region."""
    thunks = {}
    scratch = np.zeros_like(vals)
    Dt = D.T
    k = C.shape[1]
    kf = F.shape[1]
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        nnz = p1 - p0 + 1
        rows = np.searchsorted(
            pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
        ) - 1
        chunks = _sddmm_chunks(rows, crd, vals, scratch, p0, p1)
        sv = scratch[p0 : p1 + 1]
        cols = crd[p0 : p1 + 1]
        r0, r1 = int(rows[0]), int(rows[-1])
        nr = r1 - r0 + 1
        rel = rows - r0
        ov = out[r0 : r1 + 1, :]
        w = Work(2.0 * nnz * k + nnz, float(nnz * (2 * k + 4) * 8)) + Work(
            2.0 * nnz * kf, float(nnz * (2 * 8 + 8 * kf) + nr * kf * 8)
        )
        thunks[color] = _nz_thunk(chunks, C, Dt, sv, cols, F, rel, nr, kf, ov, w)
    return thunks


def _nz_thunk(chunks, C, Dt, sv, cols, F, rel, nr, kf, ov, w):
    def thunk():
        for rr, cc, vv, oo in chunks:
            dots = np.einsum("ij,ij->i", C[rr, :], Dt[cc, :])
            oo[:] = vv * dots
        prods = sv[:, None] * F[cols, :]
        acc = np.empty((nr, kf), dtype=prods.dtype)
        for col in range(kf):
            acc[:, col] = np.bincount(
                rel, weights=prods[:, col], minlength=nr
            )[:nr]
        np.add(ov, acc, out=ov)
        return w
    return thunk
'''

_FUSED_SDDMM_SPMM_ROWS = _FUSED_SDDMM_SPMM_COMMON + '''

def bind(pos, crd, vals, C, D, F, out, pieces, Work):
    """Convert row bounds to position ranges at bind; return {color: thunk}."""
    thunks = {}
    scratch = np.zeros_like(vals)
    Dt = D.T
    k = C.shape[1]
    kf = F.shape[1]
    ncols = F.shape[0]
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        nr = r1 - r0 + 1
        ov = out[r0 : r1 + 1, :]
        p0, p1 = int(pos[r0, 0]), int(pos[r1, 1])
        if p1 < p0:
            # No non-zeros in these rows: the SDDMM phase is empty and the
            # SpMM phase overwrites the output block with zeros.
            thunks[color] = _fill_zero(ov, Work(0.0, float(nr * kf * 8)))
            continue
        nnz = p1 - p0 + 1
        rows = np.searchsorted(
            pos[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
        ) - 1
        chunks = _sddmm_chunks(rows, crd, vals, scratch, p0, p1)
        indptr = np.empty(nr + 1, dtype=np.int64)
        indptr[:-1] = pos[r0 : r1 + 1, 0] - p0
        indptr[-1] = p1 + 1 - p0
        sv = scratch[p0 : p1 + 1]
        sidx = crd[p0 : p1 + 1]
        w = Work(2.0 * nnz * k + nnz, float(nnz * (2 * k + 4) * 8)) + Work(
            2.0 * nnz * kf, float(nnz * (2 * 8 + 8 * kf) + nr * kf * 8)
        )
        thunks[color] = _rows_thunk(
            chunks, C, Dt, sv, sidx, indptr, nr, ncols, F, ov, w
        )
    return thunks


def _rows_thunk(chunks, C, Dt, sv, sidx, indptr, nr, ncols, F, ov, w):
    def thunk():
        for rr, cc, vv, oo in chunks:
            dots = np.einsum("ij,ij->i", C[rr, :], Dt[cc, :])
            oo[:] = vv * dots
        # The CSR block is rebuilt per execution: its data array is the
        # scratch slice the SDDMM phase just refreshed.
        block = sp.csr_matrix((sv, sidx, indptr), shape=(nr, ncols))
        ov[:, :] = block @ F
        return w
    return thunk
'''

_SPTTV_FIBER_COMMON = '''
def _fiber_thunk(pos2, crd2, vals, c, out_vals, f0, f1, Work):
    if f1 < f0:
        return _const(Work(0.0, 0.0))
    nf = f1 - f0 + 1
    lo = pos2[f0 : f1 + 1, 0]
    hi = pos2[f0 : f1 + 1, 1]
    lens = np.maximum(hi - lo + 1, 0)
    nnz = int(lens.sum())
    ov = out_vals[f0 : f1 + 1]
    if nnz == 0:
        return _fill_zero(ov, Work(0.0, float(nf * 8)))
    s = int(lo[0])
    e = s + nnz - 1
    v = vals[s : e + 1]
    cc = crd2[s : e + 1]
    fibers = np.repeat(np.arange(nf, dtype=np.int64), lens)
    w = Work(2.0 * nnz, float(nnz * 3 * 8 + nf * 2 * 8))

    def thunk():
        ov[:] = np.bincount(fibers, weights=v * c[cc], minlength=nf)[:nf]
        return w
    return thunk
'''

_SPTTV_ROWS_CSF = _SPTTV_FIBER_COMMON + '''

def bind(pos1, pos2, crd2, vals, c, out_vals, pieces, Work):
    """Resolve row bounds to CSF fiber ranges at bind; return {color: thunk}."""
    thunks = {}
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        f0, f1 = int(pos1[r0, 0]), int(pos1[r1, 1])
        thunks[color] = _fiber_thunk(pos2, crd2, vals, c, out_vals, f0, f1, Work)
    return thunks
'''

_SPTTV_ROWS_DDC = _SPTTV_FIBER_COMMON + '''

def bind(n1, pos2, crd2, vals, c, out_vals, pieces, Work):
    """Resolve row bounds to dense fiber ranges at bind; return {color: thunk}."""
    thunks = {}
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        f0, f1 = r0 * n1, (r1 + 1) * n1 - 1
        thunks[color] = _fiber_thunk(pos2, crd2, vals, c, out_vals, f0, f1, Work)
    return thunks
'''

_SPTTV_NONZEROS = '''
def bind(pos2, crd2, vals, c, out_vals, pieces, Work):
    """Hoist fiber maps per position range; return {color: thunk}."""
    thunks = {}
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        nnz = p1 - p0 + 1
        v = vals[p0 : p1 + 1]
        cc = crd2[p0 : p1 + 1]
        fibers = np.searchsorted(
            pos2[:, 0], np.arange(p0, p1 + 1, dtype=np.int64), side="right"
        ) - 1
        f0, f1 = int(fibers[0]), int(fibers[-1])
        nf = f1 - f0 + 1
        rel = fibers - f0
        ov = out_vals[f0 : f1 + 1]
        w = Work(2.0 * nnz, float(nnz * 3 * 8 + nf * 2 * 8))
        thunks[color] = _nz_thunk(v, cc, c, rel, nf, ov, w)
    return thunks


def _nz_thunk(v, cc, c, rel, nf, ov, w):
    def thunk():
        np.add(ov, np.bincount(rel, weights=v * c[cc], minlength=nf)[:nf], out=ov)
        return w
    return thunk
'''

_MTTKRP_BODY = '''
def _body_thunk(i_ids, j_ids, k_ids, v, C, D, out, accumulate, Work):
    nnz = v.size
    l = C.shape[1]
    r0, r1 = int(i_ids[0]), int(i_ids[-1])
    nr = r1 - r0 + 1
    rel = i_ids - r0
    ov = out[r0 : r1 + 1, :]
    w = Work(3.0 * nnz * l, float(nnz * (2 * l + 3) * 8 + nr * l * 8))

    if accumulate:
        def thunk():
            prods = v[:, None] * C[j_ids, :] * D[k_ids, :]
            acc = np.empty((nr, l), dtype=prods.dtype)
            for col in range(l):
                acc[:, col] = np.bincount(
                    rel, weights=prods[:, col], minlength=nr
                )[:nr]
            np.add(ov, acc, out=ov)
            return w
    else:
        def thunk():
            prods = v[:, None] * C[j_ids, :] * D[k_ids, :]
            acc = np.empty((nr, l), dtype=prods.dtype)
            for col in range(l):
                acc[:, col] = np.bincount(
                    rel, weights=prods[:, col], minlength=nr
                )[:nr]
            ov[:, :] = acc
            return w
    return thunk
'''

_MTTKRP_CSF_IDS = '''

def _ids(pos1, crd1, pos2, crd2, p0, p1):
    positions = np.arange(p0, p1 + 1, dtype=np.int64)
    fibers = np.searchsorted(pos2[:, 0], positions, side="right") - 1
    i_ids = np.searchsorted(pos1[:, 0], fibers, side="right") - 1
    j_ids = crd1[fibers]
    k_ids = crd2[positions]
    return i_ids, j_ids, k_ids
'''

_MTTKRP_DDC_IDS = '''

def _ids(n1, pos2, crd2, p0, p1):
    positions = np.arange(p0, p1 + 1, dtype=np.int64)
    fibers = np.searchsorted(pos2[:, 0], positions, side="right") - 1
    i_ids = fibers // n1
    j_ids = fibers % n1
    k_ids = crd2[positions]
    return i_ids, j_ids, k_ids
'''

_MTTKRP_ROWS_CSF = _MTTKRP_BODY + _MTTKRP_CSF_IDS + '''

def bind(pos1, crd1, pos2, crd2, vals, C, D, out, pieces, Work):
    """Resolve rows -> fibers -> positions at bind; return {color: thunk}."""
    thunks = {}
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        f0, f1 = int(pos1[r0, 0]), int(pos1[r1, 1])
        if f1 < f0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        p0, p1 = int(pos2[f0, 0]), int(pos2[f1, 1])
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        i_ids, j_ids, k_ids = _ids(pos1, crd1, pos2, crd2, p0, p1)
        thunks[color] = _body_thunk(
            i_ids, j_ids, k_ids, vals[p0 : p1 + 1], C, D, out, False, Work
        )
    return thunks
'''

_MTTKRP_ROWS_DDC = _MTTKRP_BODY + _MTTKRP_DDC_IDS + '''

def bind(n1, pos2, crd2, vals, C, D, out, pieces, Work):
    """Resolve rows -> fibers -> positions at bind; return {color: thunk}."""
    thunks = {}
    for color, r0, r1 in pieces:
        if r1 < r0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        f0, f1 = r0 * n1, (r1 + 1) * n1 - 1
        if f1 < f0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        p0, p1 = int(pos2[f0, 0]), int(pos2[f1, 1])
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        i_ids, j_ids, k_ids = _ids(n1, pos2, crd2, p0, p1)
        thunks[color] = _body_thunk(
            i_ids, j_ids, k_ids, vals[p0 : p1 + 1], C, D, out, False, Work
        )
    return thunks
'''

_MTTKRP_NZ_CSF = _MTTKRP_BODY + _MTTKRP_CSF_IDS + '''

def bind(pos1, crd1, pos2, crd2, vals, C, D, out, pieces, Work):
    """Hoist coordinate gathers per position range; return {color: thunk}."""
    thunks = {}
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        i_ids, j_ids, k_ids = _ids(pos1, crd1, pos2, crd2, p0, p1)
        thunks[color] = _body_thunk(
            i_ids, j_ids, k_ids, vals[p0 : p1 + 1], C, D, out, True, Work
        )
    return thunks
'''

_MTTKRP_NZ_DDC = _MTTKRP_BODY + _MTTKRP_DDC_IDS + '''

def bind(n1, pos2, crd2, vals, C, D, out, pieces, Work):
    """Hoist coordinate gathers per position range; return {color: thunk}."""
    thunks = {}
    for color, p0, p1 in pieces:
        if p1 < p0:
            thunks[color] = _const(Work(0.0, 0.0))
            continue
        i_ids, j_ids, k_ids = _ids(n1, pos2, crd2, p0, p1)
        thunks[color] = _body_thunk(
            i_ids, j_ids, k_ids, vals[p0 : p1 + 1], C, D, out, True, Work
        )
    return thunks
'''

#: body template per (kind, format-class, strategy); "grid" reuses the
#: rows template — column slicing rides in the piece tuples.
TEMPLATES: Dict[Tuple[str, str, str], str] = {
    ("spmv", "csr", "rows"): _SPMV_ROWS,
    ("spmv", "csr", "nonzeros"): _SPMV_NONZEROS,
    ("spmm", "csr", "rows"): _SPMM_ROWS,
    ("spmm", "csr", "grid"): _SPMM_ROWS,
    ("spmm", "csr", "nonzeros"): _SPMM_NONZEROS,
    ("sddmm", "csr", "rows"): _SDDMM_ROWS,
    ("sddmm", "csr", "nonzeros"): _SDDMM_NONZEROS,
    ("fused_sddmm_spmm", "csr", "rows"): _FUSED_SDDMM_SPMM_ROWS,
    ("fused_sddmm_spmm", "csr", "nonzeros"): _FUSED_SDDMM_SPMM_NONZEROS,
    ("spttv", "csf3", "rows"): _SPTTV_ROWS_CSF,
    ("spttv", "ddc", "rows"): _SPTTV_ROWS_DDC,
    ("spttv", "csf3", "nonzeros"): _SPTTV_NONZEROS,
    ("spttv", "ddc", "nonzeros"): _SPTTV_NONZEROS,
    ("spmttkrp", "csf3", "rows"): _MTTKRP_ROWS_CSF,
    ("spmttkrp", "ddc", "rows"): _MTTKRP_ROWS_DDC,
    ("spmttkrp", "csf3", "nonzeros"): _MTTKRP_NZ_CSF,
    ("spmttkrp", "ddc", "nonzeros"): _MTTKRP_NZ_DDC,
}

#: extra imports per template that needs SciPy.
_SCIPY_IMPORTS = {
    ("spmv", "csr", "rows"): "from scipy.sparse import _sparsetools\n",
    ("spmm", "csr", "rows"): "import scipy.sparse as sp\n",
    ("spmm", "csr", "grid"): "import scipy.sparse as sp\n",
    ("fused_sddmm_spmm", "csr", "rows"): "import scipy.sparse as sp\n",
}

#: the full lowering support matrix.
SUPPORTED = frozenset(TEMPLATES)


def emit_source(kind: str, fmt: str, strategy: str) -> str:
    """The complete generated-module source for one supported combo."""
    key = (kind, fmt, strategy)
    body = TEMPLATES.get(key)
    if body is None:
        raise KeyError(f"no lowering template for {key}")
    extra = _SCIPY_IMPORTS.get(key, "")
    return _HEADER.format(
        kind=kind, fmt=fmt, strategy=strategy, extra_imports=extra
    ) + body
