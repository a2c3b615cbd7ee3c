"""In-memory span recorder wrapped around the program's public entry points.

The recorder never edits the program: :meth:`Tracer.install` swaps each
entry point listed in :data:`ENTRY_POINTS` for a thin wrapper that records
one span per invocation, and :meth:`Tracer.uninstall` puts the originals
back, so untraced calls run exactly the code a user runs.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``call`` the benchmark call id
the span belongs to.  A span's *self time* is its duration minus the time
its direct children cover (the program is single-threaded, so children
never overlap).  Spans stay in memory until :meth:`Tracer.write_jsonl`.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of the benchmark's own per-call root span.
ROOT = "call"

#: (module, attribute path, span name): every entry point a span wraps.
#: Same-named spans belong to one layer; a layer's self time is the sum
#: of its spans' self times.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # repro.taco: packing raw operands into tensors
    ("repro.api.session", "Session.tensor", "taco.pack"),
    ("repro.taco.tensor", "Tensor.from_scipy", "taco.pack"),
    ("repro.taco.tensor", "Tensor.from_coo", "taco.pack"),
    ("repro.taco.tensor", "Tensor.from_dense", "taco.pack"),
    ("repro.taco.tensor", "Tensor.zeros", "taco.pack"),
    # repro.api: spec parse, content hashing and memo; schedule synthesis
    ("repro", "einsum", "api.einsum"),
    ("repro.api.session", "Session.packed_operand", "api.einsum"),
    ("repro.api.session", "Session.schedule_for", "api.schedule"),
    # repro.core: pass pipeline + compile (cache lookup included), the
    # kernel fingerprint, and kernel execution
    ("repro.api.session", "compile_program", "core.compile"),
    ("repro.core.cache", "kernel_fingerprint", "core.fingerprint"),
    ("repro.core.compiler", "CompiledKernel.execute", "core.execute"),
    # repro.codegen: binding a generated leaf to a compiled kernel
    ("repro.codegen", "leaf_for", "codegen.bind"),
    # repro.legion: placement, residency reset, index launches
    ("repro.legion.runtime", "Runtime.place", "legion.place"),
    ("repro.legion.runtime", "Runtime.place_replicated", "legion.place"),
    ("repro.legion.runtime", "Runtime.place_on", "legion.place"),
    ("repro.legion.runtime", "Runtime.reset_residency", "legion.reset_residency"),
    ("repro.legion.runtime", "Runtime.index_launch", "legion.launch"),
)

#: Span name of the task callables handed to ``Runtime.index_launch``.
LEAF = "kernels.leaf"

_clock = time.perf_counter


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.calls: List[int] = []
        self._stack: List[int] = []
        self._call = -1
        self._saved: List[Tuple[object, str, object]] = []
        #: Packed non-zeros per outermost ``taco.pack`` span index.
        self.pack_nnz: Dict[int, int] = {}
        self._packs = 0  # taco.pack spans opened so far
        self._pack_depth = 0
        #: (call id, hit) per ``Session.packed_operand`` memo lookup of a
        #: raw operand.
        self.memo: List[Tuple[int, bool]] = []
        #: Bytes of every traced kernel execution, computed from the
        #: tensors' arrays (see :func:`kernel_bytes`).
        self.leaf_bytes = 0

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str) -> int:
        k = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.calls.append(self._call)
        self.ends.append(0.0)
        self._stack.append(k)
        self.starts.append(_clock())
        return k

    def _close(self, k: int) -> None:
        self.ends[k] = _clock()
        self._stack.pop()

    def begin_call(self, call_id: int) -> None:
        """Open the root span of benchmark call ``call_id``."""
        self._call = call_id
        self._open(ROOT)

    def end_call(self) -> None:
        self._close(self._stack[-1])
        self._call = -1

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one ``name`` span per invocation."""
        def traced(*args, **kwargs):
            k = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(k)
        return traced

    # -- installing the wrappers -----------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS` that exists."""
        if self._saved:
            return
        for module, path, name in ENTRY_POINTS:
            owner, attr = _resolve(module, path)
            if owner is None:
                continue
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(name, attr, raw))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def _wrap(self, name: str, attr: str, raw):
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(name, attr, raw.__func__))
        fn = raw
        if name == "taco.pack":
            return self._pack_wrapper(fn)
        if attr == "packed_operand":
            return self._memo_wrapper(fn)
        if attr == "index_launch":
            return self._launch_wrapper(fn)
        if name == "core.execute":
            return self._execute_wrapper(fn)
        return self.span(name, fn)

    def _pack_wrapper(self, fn):
        def traced(*args, **kwargs):
            self._packs += 1
            self._pack_depth += 1
            k = self._open("taco.pack")
            try:
                t = fn(*args, **kwargs)
            finally:
                self._close(k)
                self._pack_depth -= 1
            if self._pack_depth == 0:
                self.pack_nnz[k] = int(getattr(t, "nnz", 0))
            return t
        return traced

    def _memo_wrapper(self, fn):
        from repro.taco.tensor import Tensor

        def traced(session, name, data, *args, **kwargs):
            packs = None if isinstance(data, Tensor) else self._packs
            k = self._open("api.einsum")
            try:
                return fn(session, name, data, *args, **kwargs)
            finally:
                self._close(k)
                if packs is not None:
                    self.memo.append((self._call, self._packs == packs))
        return traced

    def _launch_wrapper(self, fn):
        def traced(runtime, name, colors, task, *args, **kwargs):
            k = self._open("legion.launch")
            try:
                return fn(runtime, name, colors, self.span(LEAF, task), *args, **kwargs)
            finally:
                self._close(k)
        return traced

    def _execute_wrapper(self, fn):
        def traced(ck, *args, **kwargs):
            k = self._open("core.execute")
            try:
                return fn(ck, *args, **kwargs)
            finally:
                self._close(k)
                self.leaf_bytes += kernel_bytes(ck)
        return traced

    # -- analysis ----------------------------------------------------------
    def self_times(self, calls: Optional[set] = None) -> Dict[str, float]:
        """Seconds of self time per span name, over spans whose call id is
        in ``calls`` (every span when ``calls`` is None)."""
        child = [0.0] * len(self.names)
        for k, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[k] - self.starts[k]
        out: Dict[str, float] = defaultdict(float)
        for k, name in enumerate(self.names):
            if calls is None or self.calls[k] in calls:
                out[name] += self.ends[k] - self.starts[k] - child[k]
        return out

    def pack_totals(self, calls: Optional[set] = None) -> Tuple[int, float]:
        """(non-zeros packed, seconds) over outermost pack spans."""
        nnz, secs = 0, 0.0
        for k, n in self.pack_nnz.items():
            if calls is None or self.calls[k] in calls:
                nnz += n
                secs += self.ends[k] - self.starts[k]
        return nnz, secs

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for k, name in enumerate(self.names):
                f.write(json.dumps({
                    "name": name, "start": self.starts[k], "end": self.ends[k],
                    "parent": self.parents[k], "call": self.calls[k],
                }) + "\n")


def kernel_bytes(ck) -> int:
    """Bytes a kernel execution reads and writes, computed (not measured)
    as the array bytes of every tensor the kernel partitions, output
    included."""
    return sum(part.tensor.nbytes for part in ck.parts.values())


def _resolve(module: str, path: str):
    """(owner, attribute) for ``module:path``, or (None, None) if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr
