"""Leaf benchmark: the bound leaves against same-process SciPy/NumPy.

The specialized leaves (:mod:`repro.kernels`, bound by
:func:`repro.codegen.leaf_for`) are this reproduction's stand-in for the
compiled per-format leaves of SpDISTAL/TACO, and the paper measures its
distributed code against hand-written kernels.  This scenario times two
full leaf sweeps against a reference on the same operands in the same
process:

* **rows** — every piece of the iterative-SpMV kernel (``rows``
  strategy) against SciPy's ``A @ x``;
* **non-zeros** — every piece of the fused SDDMM→SpMM kernel over an
  R-MAT graph and of a CSF3 MTTKRP kernel on a 4-GPU machine (the
  auto-scheduler picks the ``nonzeros`` strategy there), against the
  NumPy/SciPy formulas: ``(B ∘ (U @ V)) @ F`` through a gathered
  ``einsum`` and a CSR product, and MTTKRP as a CSR row-sum of
  ``v * C[j] * D[k]``.

Two contracts are checked unconditionally for every kernel:

* **values** — the swept output matches the reference within 1e-12
  relative;
* **simulated metrics** — the kernel's cold execution reports exactly the
  signature :func:`repro.analysis.predict_metrics` derives statically.

The gated statistics are ``scipy_ratio = scipy_s / leaf_s`` and
``nonzeros_ratio = nonzeros_ref_s / nonzeros_leaf_s`` (higher is better),
regression-gated by ``tools/bench_check.py --scenario leaves``.  Timing
isolates the leaf calls (``leaf(piece)`` over all pieces), not
compilation or runtime staging.  The ``rows`` leaves overwrite their
rows, so sweeps can repeat arbitrarily; a non-zeros sweep first zeroes
the outputs its pieces accumulate into, as each execution does.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..analysis.commplan import measured_signature, predict_metrics
from ..api.autoschedule import auto_schedule
from ..core import clear_caches
from ..core.compiler import compile_kernel
from ..core.passes import FUSED_SDDMM_SPMM
from ..core.program import compile_program
from ..data.matrices import rmat
from ..data.tensors import frostt_like
from ..legion.machine import Machine
from ..legion.runtime import Runtime
from ..taco.formats import CSF3, CSR
from ..taco.index_vars import index_vars
from ..taco.tensor import Tensor
from .iterative import build_spmv_workload, spmv_iteration_schedule
from .models import default_config

__all__ = [
    "LeavesBenchParams",
    "LeavesBenchResult",
    "run_leaves_bench",
    "write_leaves_report",
]

#: relative tolerance of the values contract.
RTOL = 1e-12

#: The non-zeros sweep's kernels: the fused SDDMM→SpMM over an R-MAT graph
#: (2**12 rows, edge factor 8) and MTTKRP over a FROSTT-like CSF3 tensor,
#: rank 16, on a 4-GPU machine.
GPUS, GRAPH_SCALE, EDGE_FACTOR, RANK = 4, 12, 8, 16
TENSOR_SHAPE, TENSOR_NNZ = (200, 150, 100), 40_000


@dataclass(frozen=True)
class LeavesBenchParams:
    """Shape of the scenario (the iterative-SpMV workload, rows strategy)."""

    n: int = 20_000
    density: float = 1e-4
    pieces: int = 16
    seed: int = 47
    iterations: int = 200  # sweeps per timing repeat
    repeats: int = 5  # best-of repeats guards against scheduler noise
    nonzeros_iterations: int = 10  # non-zeros sweeps per timing repeat


@dataclass
class LeavesBenchResult:
    """Everything the benchmark and the regression gate assert on."""

    params: LeavesBenchParams
    leaf_s: float  # steady seconds per full leaf sweep
    scipy_s: float  # steady seconds per SciPy ``A @ x``
    max_rel_error: float  # of the swept output against SciPy
    metrics_match_prediction: bool
    nonzeros_leaf_s: float  # steady seconds per fused + MTTKRP leaf sweep
    nonzeros_ref_s: float  # steady seconds per NumPy/SciPy reference pair
    nonzeros_max_rel_error: float  # worst of the two swept outputs
    nonzeros_metrics_match: bool

    @property
    def scipy_ratio(self) -> float:
        """SciPy time over leaf-sweep time (1.0 = SciPy speed)."""
        return self.scipy_s / self.leaf_s

    @property
    def nonzeros_ratio(self) -> float:
        """Reference time over non-zeros leaf-sweep time."""
        return self.nonzeros_ref_s / self.nonzeros_leaf_s

    @property
    def values_match(self) -> bool:
        return max(self.max_rel_error, self.nonzeros_max_rel_error) <= RTOL


def _best_of(fn, iterations: int, repeats: int) -> float:
    """Steady seconds per ``fn()`` call, best-of-``repeats``."""
    fn()  # warm-up outside the timer
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()  # nondet: ok measures host leaf time, not simulated time
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - t0) / iterations)  # nondet: ok measures host leaf time, not simulated time
    return best


def _rel_error(got, ref) -> float:
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))


def _run_nonzeros(p: LeavesBenchParams):
    """The non-zeros sweep: (leaf_s, ref_s, max_rel_error, metrics_ok)."""
    machine = Machine.gpu(GPUS)  # repro.session(gpus=...)'s machine
    rng = np.random.default_rng(p.seed)
    G = rmat(GRAPH_SCALE, EDGE_FACTOR, seed=p.seed)
    n, r = G.shape[0], RANK
    U, V, F = rng.random((n, r)), rng.random((r, n)), rng.random((n, r))
    coords, tvals, shape = frostt_like(TENSOR_SHAPE, TENSOR_NNZ, seed=p.seed)
    Cm, Dm = rng.random((shape[1], r)), rng.random((shape[2], r))

    B = Tensor.from_scipy("G", G, CSR)
    Ut, Vt, Ft = (Tensor.from_dense(nm, a) for nm, a in zip("UVF", (U, V, F)))
    E, H = Tensor.zeros("E", G.shape, CSR), Tensor.zeros("H", (n, r))
    i, j, k, i2, j2, k2 = index_vars("i j k i2 j2 k2")
    E[i, j] = B[i, j] * Ut[i, k] * Vt[k, j]
    H[i2, k2] = E[i2, j2] * Ft[j2, k2]
    (fused,) = compile_program(
        [auto_schedule(E.assignment, machine), auto_schedule(H.assignment, machine)],
        machine,
    ).kernels
    assert (fused.kind, fused.strategy) == (FUSED_SDDMM_SPMM, "nonzeros")

    T = Tensor.from_coo("T", coords, tvals, shape, CSF3)
    Ct, Dt = Tensor.from_dense("C", Cm), Tensor.from_dense("D", Dm)
    A = Tensor.zeros("A", (shape[0], r))
    l = index_vars("l")[0]
    A[i, l] = T[i, j, k] * Ct[j, l] * Dt[k, l]
    mttkrp = compile_kernel(auto_schedule(A.assignment, machine), machine)
    assert mttkrp.strategy == "nonzeros"

    metrics_ok = True
    for ck in (fused, mttkrp):
        predicted = predict_metrics(ck)
        rt = Runtime(machine)
        res = ck.execute(rt)  # cold: the execution the prediction models
        metrics_ok &= measured_signature(res.metrics, rt) == predicted

    g_rows = np.repeat(np.arange(n), np.diff(G.indptr))
    t_rows = sp.csr_matrix(
        (np.ones(tvals.size), (coords[0], np.arange(tvals.size))),
        shape=(shape[0], tvals.size),
    )

    def reference():
        ev = G.data * np.einsum("nr,nr->n", U[g_rows], V.T[G.indices])
        h = sp.csr_matrix((ev, G.indices, G.indptr), shape=G.shape) @ F
        return h, t_rows @ (Cm[coords[1]] * Dm[coords[2]] * tvals[:, None])

    bound = [(ck.out.vals.data, ck._leaf, ck.pieces) for ck in (fused, mttkrp)]

    def sweep():
        # The non-zeros pieces accumulate: zero first, as each execute does.
        for out, leaf, pieces in bound:
            out.fill(0.0)
            for piece in pieces:
                leaf(piece)

    # The reference runs before either timing: its temporaries are the
    # largest, and the allocator's reuse of freed memory (glibc raises its
    # mmap threshold to the largest freed block) then serves both timings
    # alike.  Timed first in a fresh process, the leaf sweep would pay a
    # page fault per touched page of every temporary (measured 2-3x).
    h_ref, a_ref = reference()
    leaf_s = _best_of(sweep, p.nonzeros_iterations, p.repeats)
    ref_s = _best_of(reference, p.nonzeros_iterations, p.repeats)
    err = max(_rel_error(H.dense_array(), h_ref), _rel_error(A.dense_array(), a_ref))
    return leaf_s, ref_s, err, metrics_ok


def run_leaves_bench(
    params: Optional[LeavesBenchParams] = None, **overrides
) -> LeavesBenchResult:
    """Run the full scenario; see the module docstring.

    Keyword overrides (``n=..., iterations=...``) adjust
    :class:`LeavesBenchParams`.
    """
    p = params or LeavesBenchParams(**overrides)
    machine = default_config().cpu_machine(p.pieces)
    clear_caches()
    B, c, a = build_spmv_workload(p.n, p.density, p.seed)
    ck = compile_kernel(spmv_iteration_schedule(B, c, a, p.pieces), machine)
    predicted = predict_metrics(ck)
    rt = Runtime(machine)
    res = ck.execute(rt)  # cold: the execution the prediction models
    metrics_ok = measured_signature(res.metrics, rt) == predicted

    leaf, pieces = ck._leaf, ck.pieces
    A, x = B.to_scipy(), c.dense_array()

    def sweep():
        for piece in pieces:
            leaf(piece)

    leaf_s = _best_of(sweep, p.iterations, p.repeats)
    scipy_s = _best_of(lambda: A @ x, p.iterations, p.repeats)
    err = _rel_error(a.vals.data, A @ x)
    try:
        nz_leaf_s, nz_ref_s, nz_err, nz_metrics_ok = _run_nonzeros(p)
    finally:
        clear_caches()
    return LeavesBenchResult(
        params=p,
        leaf_s=leaf_s,
        scipy_s=scipy_s,
        max_rel_error=err,
        metrics_match_prediction=metrics_ok,
        nonzeros_leaf_s=nz_leaf_s,
        nonzeros_ref_s=nz_ref_s,
        nonzeros_max_rel_error=nz_err,
        nonzeros_metrics_match=nz_metrics_ok,
    )


def write_leaves_report(result: LeavesBenchResult, directory) -> Path:
    """Write the ``BENCH_leaves_<ts>.json`` baseline for
    ``tools/bench_check.py``."""
    payload = {
        "scenario": "leaves",
        "timestamp": time.strftime("%Y%m%d-%H%M%S"),
        "params": asdict(result.params),
        "leaf_ms": result.leaf_s * 1e3,
        "scipy_ms": result.scipy_s * 1e3,
        "scipy_ratio": result.scipy_ratio,
        "max_rel_error": result.max_rel_error,
        "metrics_match_prediction": result.metrics_match_prediction,
        "nonzeros_leaf_ms": result.nonzeros_leaf_s * 1e3,
        "nonzeros_ref_ms": result.nonzeros_ref_s * 1e3,
        "nonzeros_ratio": result.nonzeros_ratio,
        "nonzeros_max_rel_error": result.nonzeros_max_rel_error,
        "nonzeros_metrics_match": result.nonzeros_metrics_match,
    }
    path = Path(directory) / f"BENCH_leaves_{payload['timestamp']}.json"
    path.write_text(json.dumps(payload, indent=2))
    return path
