"""Leaf benchmark: the bound SpMV rows leaf against SciPy's ``A @ x``.

The specialized leaves (:mod:`repro.kernels`, bound by
:func:`repro.codegen.leaf_for`) are this reproduction's stand-in for the
compiled per-format leaves of SpDISTAL/TACO, and the paper measures its
distributed code against hand-written kernels.  This scenario times one
full leaf sweep (every piece of the iterative-SpMV kernel, ``rows``
strategy) against SciPy's ``A @ x`` on the same operands in the same
process, under two contracts checked unconditionally:

* **values** — the swept output matches SciPy within 1e-12 relative;
* **simulated metrics** — the kernel's cold execution reports exactly the
  signature :func:`repro.analysis.predict_metrics` derives statically.

The gated statistic is ``scipy_ratio = scipy_s / leaf_s`` (higher is
better), regression-gated by ``tools/bench_check.py --scenario leaves``.
Timing isolates the leaf calls (``leaf(piece)`` over all pieces), not
compilation or runtime staging; the ``rows`` leaves overwrite their rows,
so sweeps can repeat arbitrarily.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..analysis.commplan import measured_signature, predict_metrics
from ..core import clear_caches
from ..core.compiler import compile_kernel
from ..legion.runtime import Runtime
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


@dataclass(frozen=True)
class LeavesBenchParams:
    """Shape of the scenario (the iterative-SpMV workload, rows strategy)."""

    n: int = 20_000
    density: float = 1e-4
    pieces: int = 16
    seed: int = 47
    iterations: int = 200  # sweeps per timing repeat
    repeats: int = 5  # best-of repeats guards against scheduler noise


@dataclass
class LeavesBenchResult:
    """Everything the benchmark and the regression gate assert on."""

    params: LeavesBenchParams
    leaf_s: float  # steady seconds per full leaf sweep
    scipy_s: float  # steady seconds per SciPy ``A @ x``
    max_rel_error: float  # of the swept output against SciPy
    metrics_match_prediction: bool

    @property
    def scipy_ratio(self) -> float:
        """SciPy time over leaf-sweep time (1.0 = SciPy speed)."""
        return self.scipy_s / self.leaf_s

    @property
    def values_match(self) -> bool:
        return self.max_rel_error <= RTOL


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
    ref = A @ x
    err = np.abs(a.vals.data - ref).max() / max(np.abs(ref).max(), 1e-300)
    clear_caches()
    return LeavesBenchResult(
        params=p,
        leaf_s=leaf_s,
        scipy_s=scipy_s,
        max_rel_error=float(err),
        metrics_match_prediction=metrics_ok,
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
    }
    path = Path(directory) / f"BENCH_leaves_{payload['timestamp']}.json"
    path.write_text(json.dumps(payload, indent=2))
    return path
