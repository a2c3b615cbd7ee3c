"""AOT codegen backend: fused, specialized NumPy leaves per compiled kernel.

This package lowers a :class:`~repro.core.compiler.CompiledKernel` to a
standalone generated Python module — one specialized function per
(kernel × format × strategy) — and binds it into a flat ``{color: thunk}``
leaf with every piece of index scaffolding hoisted out of the execution
path.  Generated modules are keyed by the stable schedule fingerprint
(schedule signature + tensor pattern versions + machine signature), cached
in :mod:`repro.core.cache`, optionally persisted through the
:class:`~repro.core.store_index.ArtifactStore`, and produce bit-identical
values *and* simulated :class:`~repro.legion.machine.Work` costs relative
to the interpreter leaves — codegen changes how leaves compute, never what
the distributed schedule does.

Knobs:

* ``REPRO_CODEGEN=0`` (or ``off``/``interp``) flips the process-wide
  default backend to the interpreter; :func:`set_codegen_backend` does the
  same programmatically.
* ``REPRO_CODEGEN_DUMP=dir`` writes every freshly lowered module to *dir*
  for inspection.
"""
from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

import numpy as np

from ..core import cache as _cache
from ..core.store import stable_fingerprint
from ..legion.machine import Work
from ..taco.tensor import CompressedLevel, Tensor
from . import lowering, registry
from .lowering import SUPPORTED
from .registry import AotEntry

__all__ = [
    "BACKENDS",
    "SUPPORTED",
    "codegen_backend",
    "codegen_stats",
    "format_class",
    "kernel_spec",
    "leaf_for",
    "reset_codegen_stats",
    "resolve_backend",
    "set_codegen_backend",
    "supported",
]

#: execution backends a compiled statement can target.
BACKENDS = ("interp", "codegen")

#: distribution strategies each kernel class can lower for.
_STRATEGIES = {
    "spmv": ("rows", "nonzeros"),
    "spmm": ("rows", "nonzeros", "grid"),
    "sddmm": ("rows", "nonzeros"),
    "fused_sddmm_spmm": ("rows", "nonzeros"),
    "spttv": ("rows", "nonzeros"),
    "spmttkrp": ("rows", "nonzeros"),
}

#: the one template that calls SciPy's compiled ``csr_matvec``.
_CSR_MATVEC_KEY = ("spmv", "csr", "rows")


def _env_default() -> str:
    v = os.environ.get("REPRO_CODEGEN", "").strip().lower()
    if v in ("0", "off", "interp", "interpreter", "false", "no"):
        return "interp"
    return "codegen"


_default_backend = _env_default()


def set_codegen_backend(backend: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    previous = _default_backend
    _default_backend = backend
    return previous


def codegen_backend() -> str:
    """The process-wide default backend ('interp' or 'codegen')."""
    return _default_backend


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend or fall back to the process default."""
    if backend is None:
        return _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def codegen_stats() -> dict:
    """Lifecycle counters: lowered/loaded/binds/fallbacks/store_seeded/store_stale."""
    return registry.stats()


def reset_codegen_stats() -> None:
    """Zero the lifecycle counters (test/bench isolation)."""
    registry.reset_stats()


def format_class(tensor: Tensor) -> Optional[str]:
    """The lowering format class of a sparse operand, or None."""
    levels = getattr(tensor, "levels", None)
    if not levels:
        return None
    # Templates index levels positionally as row-major storage; permuted
    # layouts (e.g. CSC's (1, 0)) must take the interpreter leaf.
    if tensor.format.mode_ordering != tuple(range(tensor.order)):
        return None
    if tensor.order == 2:
        if isinstance(levels[1], CompressedLevel) and levels[0].is_dense:
            return "csr"
        return None
    if tensor.order == 3:
        if not isinstance(levels[2], CompressedLevel):
            return None
        return "csf3" if isinstance(levels[1], CompressedLevel) else "ddc"
    return None


def kernel_spec(ck) -> Optional[Tuple[str, str, str]]:
    """The (kind, format-class, strategy) lowering key for ``ck``, or None."""
    strategies = _STRATEGIES.get(ck.kind)
    if strategies is None or ck.strategy not in strategies:
        return None
    sparse_in = ck.roles.get("B")
    if sparse_in is None:
        return None
    fmt = format_class(sparse_in.tensor)
    if fmt is None:
        return None
    key = (ck.kind, fmt, ck.strategy)
    if key not in SUPPORTED:
        return None
    # The SpMV rows leaf writes through SciPy's csr_matvec, which needs a
    # float64 output: other dtypes take the interpreter leaf.
    if key == _CSR_MATVEC_KEY:
        operands = [access.tensor for access in ck.roles.values()] + [ck.out]
        if any(t.dtype != np.float64 for t in operands):
            return None
    return key


def supported(ck) -> bool:
    """Whether ``ck`` has a lowering template (else: interpreter leaf)."""
    return kernel_spec(ck) is not None


def leaf_for(ck) -> Optional[Callable]:
    """A bound generated leaf for ``ck``, or None (interpreter fallback).

    Falls back — bumping the ``fallbacks`` counter — when the kernel class,
    format, or strategy has no template, when the schedule cannot be
    fingerprinted, or when the cache layer is disabled (codegen is an
    amortization feature; without caches every call would re-lower).
    """
    if not _cache.caches_enabled():
        registry.bump("fallbacks")
        return None
    spec = kernel_spec(ck)
    if spec is None:
        registry.bump("fallbacks")
        return None
    try:
        key = stable_fingerprint(ck.schedule, ck.machine)
    except _cache.Unfingerprintable:
        registry.bump("fallbacks")
        return None
    entry = registry.aot_entry_for(key, *spec)
    module = registry.ensure_loaded(entry)
    thunks = _bind(module, ck, spec)
    registry.bump("binds")

    def leaf(piece, _thunks=thunks):
        return _thunks[piece.color]()

    return leaf


# --------------------------------------------------------------------- #
# binding: extract raw arrays once, hand them to the generated module
# --------------------------------------------------------------------- #
def _row_pieces(ck):
    return [(p.color, p.rows[0], p.rows[1]) for p in ck.pieces]


def _pos_pieces(ck):
    return [(p.color, p.pos[0], p.pos[1]) for p in ck.pieces]


def _bind(module, ck, spec):
    """Call the generated module's ``bind`` with ck's raw arrays."""
    kind, fmt, strategy = spec
    out = ck.out
    if kind == "spmv":
        B = ck.roles["B"].tensor
        pos, crd, vals = B.csr_arrays()
        c = ck.roles["c"].tensor.dense_array()
        o = out.vals.data
        pieces = _pos_pieces(ck) if strategy == "nonzeros" else _row_pieces(ck)
        return module.bind(pos, crd, vals, c, o, pieces, Work)
    if kind == "spmm":
        B = ck.roles["B"].tensor
        pos, crd, vals = B.csr_arrays()
        C = ck.roles["C"].tensor.dense_array()
        o = out.dense_array()
        if strategy == "nonzeros":
            pieces = _pos_pieces(ck)
        else:
            pieces = [(p.color, p.rows[0], p.rows[1], p.cols) for p in ck.pieces]
        return module.bind(pos, crd, vals, C, o, pieces, Work)
    if kind == "sddmm":
        B = ck.roles["B"].tensor
        pos, crd, vals = B.csr_arrays()
        C = ck.roles["C"].tensor.dense_array()
        D = ck.roles["D"].tensor.dense_array()
        ov = out.vals.data
        pieces = _pos_pieces(ck) if strategy == "nonzeros" else _row_pieces(ck)
        return module.bind(pos, crd, vals, C, D, ov, pieces, Work)
    if kind == "fused_sddmm_spmm":
        B = ck.roles["B"].tensor
        pos, crd, vals = B.csr_arrays()
        C = ck.roles["C"].tensor.dense_array()
        D = ck.roles["D"].tensor.dense_array()
        F = ck.roles["F"].tensor.dense_array()
        o = out.dense_array()
        pieces = _pos_pieces(ck) if strategy == "nonzeros" else _row_pieces(ck)
        return module.bind(pos, crd, vals, C, D, F, o, pieces, Work)
    if kind == "spttv":
        B = ck.roles["B"].tensor
        lvl2 = B.levels[2]
        pos2, crd2 = lvl2.pos.data, lvl2.crd.data
        vals = B.vals.data
        c = ck.roles["c"].tensor.dense_array()
        ov = out.vals.data.reshape(-1)
        if strategy == "nonzeros":
            return module.bind(pos2, crd2, vals, c, ov, _pos_pieces(ck), Work)
        if fmt == "csf3":
            pos1 = B.levels[1].pos.data
            return module.bind(
                pos1, pos2, crd2, vals, c, ov, _row_pieces(ck), Work
            )
        return module.bind(
            B.levels[1].size, pos2, crd2, vals, c, ov, _row_pieces(ck), Work
        )
    if kind == "spmttkrp":
        B = ck.roles["B"].tensor
        lvl2 = B.levels[2]
        pos2, crd2 = lvl2.pos.data, lvl2.crd.data
        vals = B.vals.data
        C = ck.roles["C"].tensor.dense_array()
        D = ck.roles["D"].tensor.dense_array()
        o = out.dense_array()
        pieces = _pos_pieces(ck) if strategy == "nonzeros" else _row_pieces(ck)
        if fmt == "csf3":
            lvl1 = B.levels[1]
            return module.bind(
                lvl1.pos.data, lvl1.crd.data, pos2, crd2, vals, C, D, o,
                pieces, Work,
            )
        return module.bind(
            B.levels[1].size, pos2, crd2, vals, C, D, o, pieces, Work
        )
    raise AssertionError(f"unreachable: no binder for {spec}")
