"""Static cost model: price a communication plan without executing.

The companion to :mod:`repro.analysis.commplan`: where the planner
derives *what moves*, this module derives *what it costs*.  Leaf compute
is predicted by per-(kernel × strategy) :class:`~repro.legion.machine.Work`
formulas that read only the packed operands' **pattern** (rect-``pos``
arrays, level sizes — never the values), mirroring exactly what the real
leaf kernels in :mod:`repro.kernels` report; communication and overheads
are priced by running the planner's mirror and folding its steps through
the very same :meth:`~repro.legion.metrics.ExecutionMetrics.simulated_seconds`
the simulator uses.

For the specialized kernels (SpMV/SpMM/SDDMM/SpTTV/SpMTTKRP and SpAdd
assembly) the Work formulas are exact — a predicted cost equals the
simulated seconds of a real isolated trial, which is what lets
``Session.autotune(prune=True)`` rank candidate strategies statically
and trial-execute only the predicted best.  The generic COO engine's
work depends on intermediate result sizes, so its estimate is
approximate and :attr:`CostEstimate.exact` is False.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import OOMError
from ..legion.machine import Work
from ..legion.metrics import ExecutionMetrics
from ..legion.network import Network
from ..legion.runtime import Runtime
from ..taco.tensor import CompressedLevel
from .commplan import (
    CommPlan, MetricsSignature, WorkModel, _mirror_kernel, _plan_of,
    _seed_tdn_homes,
)

__all__ = ["CostEstimate", "kernel_work_model", "predict_cost"]

F8 = 8


@dataclass
class CostEstimate:
    """The statically predicted cost of one compiled statement."""

    strategy: str
    seconds: float  #: predicted simulated seconds of one isolated trial
    comm_bytes: float
    signature: Optional[MetricsSignature] = None
    plan: Optional[CommPlan] = None
    #: True when the Work model mirrors the leaf exactly (specialized
    #: kernels on packed operands); False for the generic engine's estimate.
    exact: bool = True
    oom: bool = False

    @property
    def ok(self) -> bool:
        return not self.oom and np.isfinite(self.seconds)


def _rows_nnz(pos: np.ndarray, r0: int, r1: int) -> int:
    """nnz of rows [r0, r1] the way the row-based leaves count it."""
    lo = pos[r0 : r1 + 1, 0]
    hi = pos[r0 : r1 + 1, 1]
    return int(np.maximum(hi - lo + 1, 0).sum())


def _row_of(starts: np.ndarray, p: int) -> int:
    from ..kernels.segment import row_of_positions

    return int(row_of_positions(starts, np.asarray([p], dtype=np.int64))[0])


def kernel_work_model(ck) -> Tuple[WorkModel, bool]:
    """A (work model, exact?) pair for a compiled kernel.

    The model maps ``(phase, piece)`` to the :class:`Work` the leaf task
    for that piece will return, derived purely from the operands' packed
    pattern.  ``exact`` is True when the formulas mirror the leaf
    kernel's own accounting.
    """
    kind, strategy = ck.kind, ck.strategy
    if kind == "spmv":
        pos, _crd, _vals = ck.roles["B"].tensor.csr_arrays()
        if strategy == "nonzeros":

            def work(_phase, p) -> Work:
                p0, p1 = p.pos
                if p1 < p0:
                    return Work.zero()
                nnz = p1 - p0 + 1
                span = _row_of(pos[:, 0], p1) - _row_of(pos[:, 0], p0) + 1
                return Work(2.0 * nnz, float(nnz * 3 * F8 + span * 2 * F8))

        else:

            def work(_phase, p) -> Work:
                r0, r1 = p.rows
                if r1 < r0:
                    return Work.zero()
                nnz = _rows_nnz(pos, r0, r1)
                if nnz == 0:
                    return Work(0.0, (r1 - r0 + 1) * F8)
                return Work(
                    2.0 * nnz, float(nnz * 3 * F8 + (r1 - r0 + 1) * 2 * F8)
                )

        return work, True

    if kind == "spmm":
        pos, _crd, _vals = ck.roles["B"].tensor.csr_arrays()
        full_k = ck.roles["C"].tensor.shape[1]
        if strategy == "nonzeros":

            def work(_phase, p) -> Work:
                p0, p1 = p.pos
                if p1 < p0:
                    return Work.zero()
                nnz = p1 - p0 + 1
                span = _row_of(pos[:, 0], p1) - _row_of(pos[:, 0], p0) + 1
                return Work(
                    2.0 * nnz * full_k,
                    float(nnz * (2 * F8 + F8 * full_k) + span * full_k * F8),
                )

        else:

            def work(_phase, p) -> Work:
                r0, r1 = p.rows
                if r1 < r0:
                    return Work.zero()
                k = p.cols[1] - p.cols[0] + 1 if p.cols is not None else full_k
                nnz = int(pos[r1, 1]) + 1 - int(pos[r0, 0])
                return Work(
                    2.0 * nnz * k,
                    float(nnz * (2 * F8 + F8 * k) + (r1 - r0 + 1) * k * F8),
                )

        return work, True

    if kind == "sddmm":
        pos, _crd, _vals = ck.roles["B"].tensor.csr_arrays()
        k = ck.roles["C"].tensor.shape[1]

        def sddmm_span(p0: int, p1: int) -> Work:
            if p1 < p0:
                return Work.zero()
            nnz = p1 - p0 + 1
            return Work(2.0 * nnz * k + nnz, float(nnz * (2 * k + 4) * F8))

        if strategy == "nonzeros":
            return (lambda _phase, p: sddmm_span(p.pos[0], p.pos[1])), True

        def work(_phase, p) -> Work:
            r0, r1 = p.rows
            if r1 < r0:
                return Work.zero()
            return sddmm_span(int(pos[r0, 0]), int(pos[r1, 1]))

        return work, True

    if kind in ("spttv", "spmttkrp"):
        return _fiber_work_model(ck), True

    if kind == "spadd":
        return _spadd_work_model(ck), True

    return _generic_work_model(ck), False


def _fiber_work_model(ck) -> WorkModel:
    B = ck.roles["B"].tensor
    pos2 = B.levels[2].pos.data
    lvl1 = B.levels[1]
    csf = isinstance(lvl1, CompressedLevel)
    pos1 = lvl1.pos.data if csf else None
    n1 = None if csf else lvl1.size

    def fibers_of_rows(r0: int, r1: int) -> Tuple[int, int]:
        if csf:
            return int(pos1[r0, 0]), int(pos1[r1, 1])
        return r0 * n1, (r1 + 1) * n1 - 1

    kind, strategy = ck.kind, ck.strategy
    if kind == "spttv":

        def fiber_span(f0: int, f1: int) -> Work:
            if f1 < f0:
                return Work.zero()
            nnz = _rows_nnz(pos2, f0, f1)
            if nnz == 0:
                return Work(0.0, (f1 - f0 + 1) * F8)
            return Work(2.0 * nnz, float(nnz * 3 * F8 + (f1 - f0 + 1) * 2 * F8))

        if strategy == "nonzeros":

            def work(_phase, p) -> Work:
                p0, p1 = p.pos
                if p1 < p0:
                    return Work.zero()
                nnz = p1 - p0 + 1
                span = _row_of(pos2[:, 0], p1) - _row_of(pos2[:, 0], p0) + 1
                return Work(2.0 * nnz, float(nnz * 3 * F8 + span * 2 * F8))

            return work

        def work(_phase, p) -> Work:
            r0, r1 = p.rows
            if r1 < r0:
                return Work.zero()
            return fiber_span(*fibers_of_rows(r0, r1))

        return work

    # spmttkrp
    l = ck.roles["C"].tensor.shape[1]

    def i_of_fiber(f: int) -> int:
        return _row_of(pos1[:, 0], f) if csf else f // n1

    def mttkrp_span(p0: int, p1: int) -> Work:
        if p1 < p0:
            return Work.zero()
        nnz = p1 - p0 + 1
        i0 = i_of_fiber(_row_of(pos2[:, 0], p0))
        i1 = i_of_fiber(_row_of(pos2[:, 0], p1))
        return Work(
            3.0 * nnz * l,
            float(nnz * (2 * l + 3) * F8 + (i1 - i0 + 1) * l * F8),
        )

    if ck.strategy == "nonzeros":
        return lambda _phase, p: mttkrp_span(p.pos[0], p.pos[1])

    def work(_phase, p) -> Work:
        r0, r1 = p.rows
        if r1 < r0:
            return Work.zero()
        f0, f1 = fibers_of_rows(r0, r1)
        if f1 < f0:
            return Work.zero()
        return mttkrp_span(int(pos2[f0, 0]), int(pos2[f1, 1]))

    return work


def _spadd_work_model(ck) -> WorkModel:
    out = ck.out
    _nrows, ncols = out.shape
    operand_tensors = [o.tensor for o in ck.operands]
    if ck.schedule.assignment.accumulate and all(
        t is not out for t in operand_tensors
    ):
        operand_tensors.append(out)
    metas = [(t.levels[1].pos.data, t.levels[1].crd.data) for t in operand_tensors]

    def rows_keys(r0: int, r1: int):
        keys, touched = [], 0
        for pos, crd in metas:
            lo = pos[r0 : r1 + 1, 0]
            hi = pos[r0 : r1 + 1, 1]
            lens = np.maximum(hi - lo + 1, 0)
            n = int(lens.sum())
            if n:
                s = int(lo[0])
                rows = np.repeat(np.arange(r0, r1 + 1, dtype=np.int64), lens)
                keys.append(rows * ncols + crd[s : s + n])
                touched += n
        return keys, touched

    def work(phase, p) -> Work:
        r0, r1 = p.rows
        if r1 < r0:
            return Work.zero()
        keys, touched = rows_keys(r0, r1)
        if not keys:
            return Work(0.0, 0.0) if phase == "spadd:symbolic" else Work.zero()
        if phase == "spadd:symbolic":
            return Work(float(touched), float(touched * 2 * F8))
        uniq = int(np.unique(np.concatenate(keys)).size)
        return Work(
            float(touched), float(touched * 3 * F8 + uniq * 2 * F8)
        )

    return work


def _generic_work_model(ck) -> WorkModel:
    """A rough estimate for the generic COO engine (its real work depends
    on intermediate result sizes): the statement's stored entries spread
    evenly across pieces, at the engine's 24-bytes-per-touched-entry."""
    touched = 0
    for part in ck.parts.values():
        t = part.tensor
        if t is ck.out:
            continue
        touched += t.nnz if not t.format.is_all_dense() else int(
            np.prod(t.shape)
        )
    per_piece = float(touched) / max(1, len(ck.pieces))

    def work(_phase, _p) -> Work:
        return Work(2.0 * per_piece, per_piece * 24.0)

    return work


def predict_cost(
    ck,
    *,
    network: Optional[Network] = None,
    runtime: Optional[Runtime] = None,
) -> CostEstimate:
    """Statically predict one isolated trial's simulated seconds.

    Runs the communication planner's mirror with the kernel's Work model
    and prices the resulting steps through the same
    :meth:`~repro.legion.metrics.ExecutionMetrics.simulated_seconds`
    the simulator itself folds — compute, receiver-side communication
    serialization, task and sync overheads.  A plan that exceeds a
    processor's memory comes back with ``oom=True`` and infinite seconds
    instead of raising, so autotune ranking can sink it.
    """
    work, exact = kernel_work_model(ck)
    rt = Runtime(ck.machine, network)
    _seed_tdn_homes(ck, rt, runtime)
    try:
        steps = _mirror_kernel(ck, rt, work)
    except OOMError:
        return CostEstimate(
            strategy=ck.strategy, seconds=float("inf"), comm_bytes=0.0,
            exact=exact, oom=True,
        )
    plan = _plan_of(ck, steps, rt)
    metrics = ExecutionMetrics(steps=list(steps))
    return CostEstimate(
        strategy=ck.strategy,
        seconds=metrics.simulated_seconds(rt.network),
        comm_bytes=metrics.total_comm_bytes(),
        signature=plan.signature,
        plan=plan,
        exact=exact,
    )
