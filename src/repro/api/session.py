"""The Session: one object that owns the whole SpDISTAL execution context.

The low-level API asks every caller to assemble a ``Machine``, a
``Runtime``, cache budgets and (optionally) an ``ArtifactStore`` by hand —
five imports of ceremony per statement.  A :class:`Session` folds all of
that behind one context manager::

    import repro

    with repro.session(nodes=4) as s:
        B = s.tensor("B", scipy_matrix, repro.CSR)
        c = s.tensor("c", dense_vector)
        a = repro.einsum("ij,j->i", B, c, session=s)

The session owns the machine (built from ``nodes=``/``gpus=`` or passed
in), the runtime (mapping traces accumulate across every statement the
session executes), the kernel/partition cache budgets (restored on exit),
and an optional persistent artifact store for cross-process warm starts.
Explicit schedules remain a per-statement *override* — anywhere the
session accepts a statement it also accepts a hand-built
:class:`~repro.taco.schedule.Schedule`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import cache as _cache
from ..core.compiler import CompiledKernel, ExecutionResult
from ..core.program import CompiledProgram, ProgramResult, compile_program
from ..core.store_index import ArtifactStore
from ..errors import OOMError, ScheduleError
from ..legion.machine import Machine, NodeSpec
from ..legion.network import Network
from ..legion.runtime import Runtime
from ..taco.expr import Assignment
from ..taco.formats import Format
from ..taco.schedule import Schedule
from ..taco.tensor import Tensor
from .autoschedule import _as_assignment, auto_schedule, candidate_strategies

__all__ = ["Session", "session", "AutotuneCandidate", "AutotuneResult"]

Schedulable = Union[Schedule, Assignment, Tensor]


@dataclass
class AutotuneCandidate:
    """One strategy's timed trials inside a :meth:`Session.autotune` search.

    Under ``autotune(prune=True)`` every candidate also carries the static
    cost model's ``predicted_seconds``; candidates the predicted ranking
    eliminated have ``pruned=True`` and NaN ``simulated_seconds`` — they
    were never trial-executed.
    """

    strategy: str
    simulated_seconds: float
    comm_bytes: float = 0.0
    oom: bool = False
    predicted_seconds: Optional[float] = None
    pruned: bool = False

    @property
    def ok(self) -> bool:
        return not self.oom and np.isfinite(self.simulated_seconds)


@dataclass
class AutotuneResult:
    """The outcome of one :meth:`Session.autotune` call.

    ``strategy`` names the winning schedule family, ``kernel`` is its
    compiled form (also held by the kernel cache), ``candidates`` lists
    every strategy tried with its trial cost (empty when the decision table
    answered), ``trials_run`` counts timed trials actually executed (zero
    on a decision-table or warm-start hit), and ``from_cache`` says whether
    the search was skipped.
    """

    strategy: str
    kernel: CompiledKernel
    decision_key: Optional[str]
    candidates: List[AutotuneCandidate] = field(default_factory=list)
    trials_run: int = 0
    from_cache: bool = False
    #: True when the static cost model ranked the pool and only the
    #: predicted best was trial-executed (``autotune(prune=True)``).
    pruned: bool = False

    @property
    def simulated_seconds(self) -> float:
        """The winner's best trial time (NaN on a from-cache replay)."""
        for c in self.candidates:
            if c.strategy == self.strategy:
                return c.simulated_seconds
        return float("nan")


class Session:
    """Owns machine, runtime, cache budgets and the optional artifact store.

    Usable as a context manager (``with repro.session(nodes=4) as s:``);
    entering is cheap and exiting restores any cache budgets the session
    changed.  All work submitted through one session executes on one
    runtime, so mapping traces recorded by statement N replay for
    statement N+k — the compile-once / run-many layers span the session.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        *,
        nodes: Optional[int] = None,
        gpus: Optional[int] = None,
        node: Optional[NodeSpec] = None,
        network: Optional[Network] = None,
        runtime: Optional[Runtime] = None,
        store: Optional[Union[str, Path, ArtifactStore]] = None,
        kernel_cache_bytes: Optional[int] = None,
        partition_cache_bytes: Optional[int] = None,
        trace_replay: Optional[bool] = None,
        metrics_limit: Optional[int] = None,
    ):
        if runtime is not None:
            # Adopt an existing runtime (e.g. one restored from the
            # artifact store, mapping traces included); the session's
            # machine is the runtime's, and the runtime keeps the network,
            # trace_replay and metrics_limit it was built with — passing
            # any of them here would be silently ignored, so it is an
            # error, like the machine-family conflict.
            conflicts = {
                "machine": machine, "nodes": nodes, "gpus": gpus,
                "node": node, "network": network,
                "trace_replay": trace_replay, "metrics_limit": metrics_limit,
            }
            clashing = [k for k, v in conflicts.items() if v is not None]
            if clashing:
                raise ValueError(
                    f"runtime= already carries {', '.join(clashing)}; "
                    "pass either runtime= or those options, not both"
                )
            self.machine = runtime.machine
            self.runtime = runtime
        else:
            if machine is not None and (nodes is not None or gpus is not None):
                raise ValueError("pass either machine= or nodes=/gpus=, not both")
            if machine is None:
                spec = node if node is not None else NodeSpec()
                if gpus is not None:
                    machine = Machine.gpu(gpus, spec)
                else:
                    machine = Machine.cpu(nodes if nodes is not None else 1, spec)
            self.machine = machine
            self.runtime = Runtime(
                machine, network,
                trace_replay=True if trace_replay is None else trace_replay,
                metrics_limit=10_000 if metrics_limit is None else metrics_limit,
            )
        if store is None or isinstance(store, ArtifactStore):
            self.store: Optional[ArtifactStore] = store
        else:
            self.store = ArtifactStore(store)
        self._saved_budgets: Optional[Dict[str, int]] = None
        if kernel_cache_bytes is not None or partition_cache_bytes is not None:
            self._saved_budgets = _cache.cache_budgets()
            _cache.set_cache_budget(kernel_cache_bytes, partition_cache_bytes)
        self._pending = None  # implicit Program fed by define()
        #: Content-keyed packing memo (see :meth:`packed_operand`): digest
        #: of the raw operand → the packed Tensor, so repeated calls over
        #: equal raw data reuse one tensor *identity* and every
        #: identity-keyed layer downstream (kernel fingerprints, partition
        #: memo, mapping traces) hits.
        self._packed_memo: Dict[str, Tensor] = {}
        #: einsum output-tensor memo: statement signature → (operand
        #: tensors, output tensor).  Holding the operands pins their ids
        #: so a recycled id can never alias a stale key.
        self._einsum_out_memo: Dict[tuple, tuple] = {}
        #: The :class:`ExecutionResult` of the session's most recent
        #: single-statement execution (``execute``/``einsum``).
        self.last_result: Optional[ExecutionResult] = None

    # ------------------------------------------------------------------ #
    # context management
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Restore cache budgets the session changed (idempotent)."""
        if self._saved_budgets is not None:
            _cache.set_cache_budget(
                self._saved_budgets["kernel_bytes"],
                self._saved_budgets["partition_bytes"],
                self._saved_budgets.get("decision_bytes"),
            )
            self._saved_budgets = None

    # ------------------------------------------------------------------ #
    # tensor construction sugar
    # ------------------------------------------------------------------ #
    def tensor(self, name: str, data, format: Optional[Format] = None) -> Tensor:
        """Pack ``data`` into a named tensor: accepts a SciPy sparse
        matrix or a NumPy array / array-like.  An already packed
        :class:`Tensor` passes through unchanged (its existing name is
        kept); asking for a *different* format than the packed one is an
        error rather than a silent no-op — repack explicitly via
        ``Tensor.from_coo(...)`` to convert."""
        if isinstance(data, Tensor):
            if format is not None and format != data.format:
                raise ValueError(
                    f"{data.name} is already packed as {data.format.name}; "
                    f"it cannot pass through as {format.name} — repack it "
                    "to convert formats"
                )
            return data
        if hasattr(data, "tocoo"):  # scipy sparse
            return Tensor.from_scipy(name, data, format)
        return Tensor.from_dense(name, np.asarray(data), format)

    def packed_operand(self, name: str, data,
                       format: Optional[Format] = None) -> Tensor:
        """Like :meth:`tensor`, but memoized by raw-operand *content*.

        Two calls with equal raw operands — same name, format, shape,
        dtype and bytes — return the *same* packed :class:`Tensor`
        object.  Every amortization layer downstream keys on tensor
        identity (kernel fingerprints, the partition memo, mapping
        traces), so this is what lets a repeated ``einsum`` over the same
        raw arrays compile **zero** new kernels.  Operands whose content
        cannot be digested (already packed tensors pass through; exotic
        array-likes fall back) just pack fresh, exactly as
        :meth:`tensor` would.
        """
        if isinstance(data, Tensor):
            return self.tensor(name, data, format)
        key = self._content_key(name, data, format)
        if key is None:
            return self.tensor(name, data, format)
        hit = self._packed_memo.get(key)
        if hit is not None:
            return hit
        t = self.tensor(name, data, format)
        self._packed_memo[key] = t
        return t

    @staticmethod
    def _content_key(name: str, data, format: Optional[Format]) -> Optional[str]:
        """A content digest of a raw operand, or None when undigestable.

        SciPy matrices reuse the bench warmstore's digest discipline
        (name + format + CSR arrays); dense arrays hash name + format +
        shape + dtype + bytes.
        """
        if hasattr(data, "tocoo"):  # scipy sparse
            from ..bench.warmstore import content_key

            return "sp:" + content_key(name, format, data)
        try:
            arr = np.asarray(data)
        except Exception:
            return None
        if arr.dtype.hasobject:
            return None
        h = hashlib.sha256()
        h.update(repr((
            name, format.name if format is not None else None,
            arr.shape, arr.dtype.str,
        )).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
        return "np:" + h.hexdigest()

    def from_coo(self, name: str, coords, vals, shape,
                 format: Optional[Format] = None) -> Tensor:
        """Pack COO coordinates/values (see :meth:`Tensor.from_coo`)."""
        return Tensor.from_coo(name, coords, vals, shape, format)

    def zeros(self, name: str, shape: Sequence[int],
              format: Optional[Format] = None, dtype=np.float64) -> Tensor:
        """An output tensor (see :meth:`Tensor.zeros`)."""
        return Tensor.zeros(name, shape, format, dtype)

    # ------------------------------------------------------------------ #
    # scheduling / compilation
    # ------------------------------------------------------------------ #
    def schedule_for(self, target: Schedulable, **kw) -> Schedule:
        """The schedule the session will use for ``target``: an explicit
        :class:`Schedule` passes through; anything else is auto-scheduled
        for the session's machine (see :func:`repro.api.auto_schedule`).

        When the decision table holds an :meth:`autotune` winner for the
        statement's family (same statement shape, tensor pattern stats and
        machine signature), that strategy is synthesized instead of the
        paper's static default — tuned sessions, warm-started processes and
        ``einsum`` all replay the tuned choice with zero search trials.
        """
        if isinstance(target, Schedule):
            return target
        if "strategy" not in kw:
            decision = self._lookup_decision(_as_assignment(target))
            if decision is not None:
                try:
                    return auto_schedule(
                        target, self.machine,
                        strategy=decision["strategy"], **kw,
                    )
                except ScheduleError:
                    # The recorded winner cannot be built under these
                    # options (e.g. a tuned 'grid' with a non-square
                    # pieces= override): a tuned session must never turn
                    # a previously valid call into an error — fall back
                    # to the static default synthesis.
                    pass
        return auto_schedule(target, self.machine, **kw)

    def _decision_key(self, asg: Assignment) -> Optional[str]:
        try:
            return _cache.decision_fingerprint(asg, self.machine)
        except _cache.Unfingerprintable:
            return None

    def _lookup_decision(self, asg: Assignment) -> Optional[Dict]:
        if not _cache.has_decisions():
            return None  # untuned process: skip the fingerprint walk
        key = self._decision_key(asg)
        return _cache.lookup_decision(key) if key is not None else None

    def compile(self, *targets: Schedulable, use_cache: bool = True,
                cse: bool = True, fold: bool = True, dse: bool = True,
                fuse: bool = True, keep=None) -> CompiledProgram:
        """Compile one or more statements together as a program.

        Each target is a :class:`Schedule` (explicit mapping), an
        :class:`Assignment`, or a :class:`Tensor` carrying one (both
        auto-scheduled).  The pass pipeline (:mod:`repro.core.passes`)
        runs first — ``fold``/``dse``/``fuse`` disable individual passes,
        ``keep=`` pins tensors that must stay materialized.  Shared
        operands' partitions are derived once across the program, and
        with ``cse`` (default) identical repeated statements execute once
        per pass (see :func:`repro.core.program.compile_program`).
        """
        schedules = [self.schedule_for(t) for t in targets]
        return compile_program(
            schedules, self.machine, use_cache=use_cache, cse=cse,
            fold=fold, dse=dse, fuse=fuse, keep=keep,
        )

    def compile_kernel(self, target: Schedulable, *,
                       use_cache: bool = True) -> CompiledKernel:
        """Compile a single statement to its :class:`CompiledKernel`."""
        return self.compile(target, use_cache=use_cache).kernels[0]

    def execute(self, target, *, fresh_trial: bool = True) -> ExecutionResult:
        """Compile (if needed) and run one statement on the session runtime.

        ``target`` may be anything :meth:`compile` accepts, or an already
        compiled :class:`CompiledKernel`.  Returns the execution result
        (also kept as :attr:`last_result`).
        """
        if isinstance(target, CompiledKernel):
            ck = target
        else:
            ck = self.compile_kernel(target)
        res = ck.execute(self.runtime, fresh_trial=fresh_trial)
        self.last_result = res
        return res

    # ------------------------------------------------------------------ #
    # autotuning
    # ------------------------------------------------------------------ #
    def autotune(
        self,
        target,
        *,
        strategies: Optional[Sequence[str]] = None,
        trials: int = 2,
        force: bool = False,
        warm: bool = True,
        prune: bool = False,
    ):
        """Search the schedule-family space for ``target`` and keep the winner.

        ``target`` is an :class:`~repro.taco.expr.Assignment`, a tensor
        carrying one, or a :class:`~repro.api.program.Program` (each
        auto-scheduled statement is tuned in order; a list of results comes
        back).  Every candidate strategy — the paper's default for the
        statement's kind/machine, the alternative of rows/non-zeros, and
        the 2-D ``grid`` split for SpMM on square machine grids — is
        compiled through the kernel cache and timed for ``trials``
        isolated trials on a scratch runtime (:meth:`~repro.legion.runtime.Runtime.fresh_trial`: one
        cold placement pass records the mapping trace, the timed trials
        replay it), under the simulator's deterministic cost model.  Ties
        keep the paper's default.

        The winner's :class:`CompiledKernel` stays in the kernel cache, and
        the decision is recorded in the decision table under the statement
        family's stable fingerprint — later :meth:`execute`/``einsum``
        calls synthesize the winning strategy directly, and an
        ``ArtifactStore`` warm start replays it in a fresh process with
        **zero** search trials (``force=True`` re-searches anyway).
        ``strategies=`` restricts the pool for a one-off *measurement*:
        the constrained search bypasses (and never writes) the decision
        table, so it cannot become family policy.

        ``prune=True`` ranks the compiled candidates with the static cost
        model (:func:`repro.analysis.predict_cost`) and trial-executes
        them in predicted order only until one succeeds — normally just
        the predicted best, so a pool of *n* strategies costs one
        candidate's trials instead of *n*.  For the specialized kernels
        the prediction is exact (it mirrors the simulator), so the pruned
        search provably selects the same winner as the exhaustive one;
        eliminated candidates appear in ``result.candidates`` with their
        ``predicted_seconds`` and ``pruned=True``, and the recorded
        decision keeps the predicted-vs-measured comparison.  With
        ``warm`` (default)
        the winner executes once on the *session* runtime — searched or
        answered from the table — so its mapping trace is recorded (or
        replayed) where subsequent executions use it; the result lands in
        :attr:`last_result`.
        """
        from .program import Program

        if isinstance(target, Program):
            return [
                self.autotune(
                    stmt.assignment, strategies=strategies, trials=trials,
                    force=force, warm=warm, prune=prune,
                )
                for stmt in target.statements
                if stmt.explicit_schedule is None
            ]
        asg = _as_assignment(target)
        key = self._decision_key(asg)
        # An explicit strategies= pool is a one-off measurement: it
        # neither answers from the decision table (the recorded winner
        # may be a strategy the caller excluded) nor writes to it.
        if not force and strategies is None and key is not None:
            decision = _cache.lookup_decision(key)
            if decision is not None:
                sched = auto_schedule(
                    asg, self.machine, strategy=decision["strategy"]
                )
                ck = compile_program([sched], self.machine).kernels[0]
                if warm:
                    # The warm contract holds on the cached path too: the
                    # winner runs once on the session runtime (replaying
                    # its stored trace when one was persisted) and the
                    # result lands in last_result.
                    self.last_result = ck.execute(self.runtime)
                return AutotuneResult(
                    strategy=decision["strategy"],
                    kernel=ck,
                    decision_key=key,
                    trials_run=0,
                    from_cache=True,
                )

        if trials < 1:
            raise ValueError(f"autotune needs at least one trial, got {trials}")
        pool = (
            list(strategies)
            if strategies is not None
            else candidate_strategies(asg, self.machine)
        )
        if not pool:
            raise ValueError("autotune needs at least one candidate strategy")
        compiled: List[Tuple[str, CompiledKernel]] = []
        for strategy in pool:
            try:
                sched = auto_schedule(asg, self.machine, strategy=strategy)
                ck = compile_program([sched], self.machine).kernels[0]
            except ScheduleError:
                # An inapplicable candidate (e.g. 'nonzeros' with no single
                # compressed operand) just drops out of the pool.
                continue
            compiled.append((strategy, ck))
        predicted: Dict[str, object] = {}
        order = compiled
        if prune and compiled:
            from ..analysis.costmodel import predict_cost

            for strategy, ck in compiled:
                predicted[strategy] = predict_cost(
                    ck, network=self.runtime.network, runtime=self.runtime
                )
            # A stable sort keeps pool order (the paper's default first)
            # on predicted ties — the same tie-break as the exhaustive
            # search's strict-improvement rule.
            order = sorted(
                compiled, key=lambda sc: predicted[sc[0]].seconds
            )
        candidates: List[AutotuneCandidate] = []
        kernels: Dict[str, CompiledKernel] = {}
        best: Optional[AutotuneCandidate] = None
        trials_run = 0
        for strategy, ck in order:
            est = predicted.get(strategy)
            if prune and best is not None:
                # The predicted ranking already placed this candidate
                # behind a measured winner: record it without executing.
                candidates.append(AutotuneCandidate(
                    strategy, float("nan"),
                    oom=est.oom, predicted_seconds=est.seconds, pruned=True,
                ))
                kernels[strategy] = ck
                continue
            # Candidate isolation: a scratch runtime per strategy, priced
            # under the session's network model.  Placements and traces of
            # one candidate never touch the session runtime or each other.
            rt = Runtime(self.machine, self.runtime.network)
            try:
                ck.execute(rt)  # cold: placement + staging + trace record
                seconds = []
                comm = 0.0
                for _ in range(trials):
                    with rt.fresh_trial() as trial:
                        ck.execute(rt, fresh_trial=False)
                    seconds.append(trial.simulated_seconds)
                    comm = trial.comm_bytes
                    trials_run += 1
                cand = AutotuneCandidate(
                    strategy, min(seconds), comm,
                    predicted_seconds=est.seconds if est is not None else None,
                )
            except OOMError:
                cand = AutotuneCandidate(
                    strategy, float("inf"), oom=True,
                    predicted_seconds=est.seconds if est is not None else None,
                )
            candidates.append(cand)
            kernels[strategy] = ck
            # Strict improvement only: a tie keeps the earlier candidate,
            # and the pool lists the paper's default first.
            if cand.ok and (
                best is None or cand.simulated_seconds < best.simulated_seconds
            ):
                best = cand
        if best is None:
            raise OOMError(
                0, float("inf"), 0.0,
                what="autotune: every candidate strategy OOMed",
            )
        # Detach the throwaway trial runtimes: the candidates stay compiled
        # (kernel cache), but a scratch runtime pinned on a kernel would be
        # persisted by save_packed — and a warm-started process would adopt
        # the wrong runtime's (empty) traces instead of the session's.
        for ck in kernels.values():
            ck._runtime = None
        winner = kernels[best.strategy]
        # A restricted pool measures, it does not set family policy: only
        # a full-candidate search records into the decision table, so a
        # one-off ``strategies=['nonzeros']`` probe can neither overwrite
        # nor seed what later executes (and warm-started processes) replay.
        record = key is not None and strategies is None
        if record:
            decision = {
                "strategy": best.strategy,
                "kind": winner.kind,
                "pieces": len(winner.pieces),
                "simulated_seconds": best.simulated_seconds,
                "trials": int(trials),
                "candidates": {
                    c.strategy: (
                        "oom" if c.oom else
                        "pruned" if c.pruned else c.simulated_seconds
                    )
                    for c in candidates
                },
            }
            if prune:
                # Keep the predicted-vs-measured comparison auditable: the
                # static ranking that stood in for the skipped trials.
                decision["pruned"] = True
                decision["predicted"] = {
                    s: ("oom" if predicted[s].oom else predicted[s].seconds)
                    for s, _ in compiled
                }
            _cache.store_decision(key, decision)
        result = AutotuneResult(
            strategy=best.strategy,
            kernel=winner,
            decision_key=key,
            candidates=candidates,
            trials_run=trials_run,
            from_cache=False,
            pruned=prune,
        )
        if warm:
            # Record the winner's mapping trace on the session runtime so
            # the next execute replays instead of re-analyzing.
            self.last_result = winner.execute(self.runtime)
        return result

    # ------------------------------------------------------------------ #
    # lazy programs
    # ------------------------------------------------------------------ #
    def program(self) -> "Program":
        """A new lazy multi-statement :class:`~repro.api.program.Program`
        bound to this session (usable as a ``with`` block that captures
        assignments)."""
        from .program import Program

        return Program(self)

    def define(self, target: Schedulable, *, schedule: Optional[Schedule] = None):
        """Record a statement into the session's implicit pending program.

        Returns the program :class:`~repro.api.program.Statement` handle
        (``.use_schedule(...)`` overrides the auto-schedule).  Run the
        accumulated statements with :meth:`run`.
        """
        if self._pending is None:
            self._pending = self.program()
        return self._pending.define(target, schedule=schedule)

    def run(self, program=None, *, fresh_trial: bool = True) -> ProgramResult:
        """Compile and execute a program (default: the statements recorded
        by :meth:`define`, which are then cleared)."""
        if program is None:
            program = self._pending
            self._pending = None
        if program is None:
            raise ValueError("no pending statements; call define() first")
        return program.run(fresh_trial=fresh_trial)

    # ------------------------------------------------------------------ #
    # persistence (optional artifact store)
    # ------------------------------------------------------------------ #
    def _require_store(self) -> ArtifactStore:
        if self.store is None:
            raise ValueError(
                "this session has no artifact store; pass store=<dir> to "
                "repro.session(...)"
            )
        return self.store

    def put(self, tensor: Tensor, *, keys: Sequence[str] = (), **kw) -> Path:
        """Publish a packed tensor (plus the cache entries referencing it)
        to the session's artifact store; see :meth:`ArtifactStore.put`."""
        return self._require_store().put(
            tensor, keys=keys, runtime=kw.pop("runtime", self.runtime), **kw
        )

    def load(self, key: str, **kw):
        """Load the newest artifact for ``key`` from the session's store
        (keywords pass through, e.g. ``mmap=True``)."""
        return self._require_store().load(key, **kw)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """One amortization report: compiler cache counters
        (:func:`repro.core.cache.cache_stats`) plus the runtime's
        mapping-trace counters (:meth:`Runtime.stats`)."""
        out = dict(_cache.cache_stats())
        out.update(self.runtime.stats())
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Session({self.machine!r}, store="
            f"{self.store.root if self.store else None})"
        )


def session(
    machine: Optional[Machine] = None,
    *,
    nodes: Optional[int] = None,
    gpus: Optional[int] = None,
    **kw,
) -> Session:
    """Open a :class:`Session` — the primary entry point of the high-level
    API.  ``repro.session(nodes=4)`` builds a 4-node CPU machine;
    ``repro.session(gpus=8)`` a GPU machine; pass ``machine=`` for full
    control and ``store=<dir>`` to enable the persistent artifact store.
    Designed for ``with`` use, but valid without (``close()`` restores the
    cache budgets a long-lived session changed)."""
    return Session(machine, nodes=nodes, gpus=gpus, **kw)
