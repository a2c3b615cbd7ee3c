"""Host-time benchmark of the SpDISTAL reproduction: one workload per run.

    python3 perfbench/run.py --workload spmv-power --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ``src/``;
nothing under it is changed.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``, taken with tracing off; ``--trace 1`` reports its
per-layer metrics from a traced run (see ``perfbench/README.md``) and
writes the spans to ``perfbench/traces/``.  Every output is checked against
a same-process SciPy/NumPy reference, and every execution's simulated
seconds and communication bytes against the static cost model.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

# A single process with no extra threads: pin the BLAS pools before NumPy
# is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

_clock = time.perf_counter

#: Per-layer metrics that must repeat exactly across runs of one seed.
EXACT = (
    "api.operand_memo_hit_ratio", "api.operand_memo_lookups",
    "core.kernel_hit_ratio", "core.kernel_lookups",
    "core.partition_hit_ratio", "core.partition_lookups",
    "legion.trace_hit_ratio", "legion.sim_s", "legion.comm_bytes",
    "codegen.fallbacks", "codegen.binds", "analysis.predict_drift_s",
    "analysis.inexact_drift_s",
)

#: Layers whose self time the traced run reports, per call and per set-up.
TIMED_LAYERS = (
    ("taco.pack", "taco.pack_ms"),
    ("api.einsum", "api.einsum_self_ms"),
    ("api.schedule", "api.schedule_ms"),
    ("core.compile", "core.compile_ms"),
    ("core.fingerprint", "core.fingerprint_ms"),
    ("core.execute", "core.execute_self_ms"),
    ("codegen.bind", "codegen.bind_ms"),
    ("legion.place", "legion.place_ms"),
    ("legion.reset_residency", "legion.reset_residency_ms"),
    ("legion.launch", "legion.launch_self_ms"),
    ("kernels.leaf", "kernels.leaf_ms"),
    ("call", "root_self_ms"),
)


def _median(xs) -> float:
    return float(np.median(xs))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Invariants:
    """Checks every execution's simulated seconds and communication bytes.

    Per compiled kernel, the communication bytes must equal the static
    cost model's prediction (:func:`repro.analysis.predict_cost`), and so
    must the simulated seconds wherever the model declares its price
    exact; and every repeat of a kernel must reproduce its first
    execution's seconds and bytes exactly.  ``drift`` is the largest gap
    between measured and exactly-predicted seconds (0 when correct);
    ``inexact_drift`` the same gap for kernels the model prices only
    approximately, which is reported, not failed.
    """

    def __init__(self):
        self.drift = 0.0
        self.inexact_drift = 0.0

    def new_session(self, network) -> None:
        """Forget the previous session's kernels (releasing them)."""
        self.network = network
        self._kernels = {}  # id(plan) -> compiled kernel
        self._expected = {}  # id(plan) -> (prediction, first measured)

    def _kernel_of(self, plan):
        from repro.core import cache

        ck = self._kernels.get(id(plan))
        if ck is None:
            for _key, kernel, _tensors in cache.iter_kernel_entries():
                self._kernels[id(kernel.plan)] = kernel
            ck = self._kernels[id(plan)]
        return ck

    def check(self, results):
        """(ok, simulated seconds, communication bytes) over ``results``."""
        from repro.analysis import predict_cost

        ok, sim, comm = True, 0.0, 0.0
        for res in results:
            if res.reused:
                continue
            measured = (res.simulated_seconds, res.metrics.total_comm_bytes())
            sim += measured[0]
            comm += measured[1]
            known = self._expected.get(id(res.plan))
            if known is None:
                est = predict_cost(self._kernel_of(res.plan), network=self.network)
                known = self._expected[id(res.plan)] = (est, measured)
            est, first = known
            gap = abs(measured[0] - est.seconds)
            if est.exact:
                self.drift = max(self.drift, gap)
            else:
                self.inexact_drift = max(self.inexact_drift, gap)
            ok = (
                ok and measured == first and measured[1] == est.comm_bytes
                and (gap == 0.0 or not est.exact)
            )
        return ok, sim, comm


def _counters(session) -> dict:
    """The program's public stats: compiler caches, runtime traces, codegen."""
    import repro
    from repro.core import cache

    out = dict(cache.cache_stats())
    out.update(session.runtime.stats())
    codegen_stats = getattr(repro, "codegen_stats", None)
    if codegen_stats is not None:
        out.update({f"codegen_{k}": v for k, v in codegen_stats().items()})
    return out


def _host_facts() -> dict:
    import scipy

    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(), "ram_gib": round(ram / 2**30, 2),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(workload_cls, seed: int, seconds: float, trace: bool):
    """Set up, run the closed loop for ``seconds``, return the raw record."""
    import resource

    from repro.core import clear_caches

    from tracer import Tracer

    wl = workload_cls(seed)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    setup_times = []
    inv = Invariants()

    def new_session() -> None:
        """Timed set-up of a fresh session from empty compiler caches,
        then the check of its first results."""
        nonlocal attempted, failed
        wl.teardown()
        clear_caches()
        gc.collect()
        if tracer:
            tracer.install()
            tracer.begin_call(-1 - len(setup_times))
        try:
            t0 = _clock()
            wl.setup()
            setup_times.append(_clock() - t0)
        finally:
            if tracer:
                tracer.end_call()
                tracer.uninstall()
        inv.new_session(wl.s.runtime.network)
        ok, _ref, results = wl.check(-1)
        attempted += 1
        failed += not (ok and inv.check(results)[0])

    def step(i: int, traced: bool):
        """Prepare, time and verify call ``i``: (seconds, reference
        seconds, simulated seconds, comm bytes), or None if it failed."""
        wl.prepare(i)
        if traced:
            tracer.install()
            tracer.begin_call(i)
        try:
            t0 = _clock()
            wl.call(i)
            dt = _clock() - t0
        finally:
            if traced:
                tracer.end_call()
                tracer.uninstall()
        ok, ref_s, results = wl.check(i)
        inv_ok, sim, comm = inv.check(results)
        return (dt, ref_s, sim, comm) if ok and inv_ok else None

    deltas: dict = {}

    def add_deltas(before: dict) -> None:
        for k, v in _counters(wl.s).items():
            deltas[k] = deltas.get(k, 0) + v - before[k]

    for _ in range(wl.setup_repeats):
        new_session()
    # One-off work of a session's first calls, untimed (see Workload.warmup).
    for i in range(wl.warmup):
        attempted += 1
        failed += step(i, False) is None

    # calls: (call id, seconds, traced, position in its session)
    calls, refs, sims, comms = [], [], [], []
    length = wl.session_calls
    start, i, pos = _clock(), wl.warmup, 0
    before = _counters(wl.s)
    while True:
        if (pos == length) if length else (i % wl.period == 0):
            if _clock() - start >= seconds:
                break
            if length:
                add_deltas(before)
                new_session()
                before, pos = _counters(wl.s), 0
        traced = bool(tracer) and wl.traced(i)
        attempted += 1
        try:
            out = step(i, traced)
        except Exception:
            traceback.print_exc()
            out = None
        if out is None:
            failed += 1
        else:
            calls.append((i, out[0], traced, pos))
            refs.append(out[1])
            sims.append(out[2])
            comms.append(out[3])
        i += 1
        pos += 1
    add_deltas(before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": wl, "tracer": tracer, "attempted": attempted,
        "failed": failed, "setup_times": setup_times, "calls": calls,
        "refs": refs, "sims": sims, "comms": comms, "invariants": inv,
        "deltas": deltas, "cache_stats": _counters(wl.s),
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end(rec) -> dict:
    wl = rec["workload"]
    calls, refs = rec["calls"], rec["refs"]
    times = [dt for _i, dt, _t, _pos in calls]
    # Age windows: a tenth of a session, in whole blocks of the rotation.
    # The reference runs on the same operands right after each call, so
    # dividing by its own growth over the same windows cancels any drift
    # of the host's speed during the run.
    length = wl.session_calls or len(calls)
    window = max(1, round(length / 10 / wl.block)) * wl.block
    first = [k for k, c in enumerate(calls) if c[3] < window]
    last = [k for k, c in enumerate(calls) if c[3] >= length - window]

    def growth(xs):
        return _median([xs[k] for k in last]) / _median([xs[k] for k in first])

    p50 = _median(times)
    return {
        "setup_s": _median(rec["setup_times"]),
        "call_ms_p50": p50 * 1e3,
        "call_ms_p90": float(np.percentile(times, 90)) * 1e3,
        "calls_per_s": len(times) / sum(times),
        "ref_ratio": p50 / _median(rec["refs"]),
        "age_slowdown": growth(times) / growth(refs),
        "peak_rss_mb": rec["peak_rss_mb"],
        "error_rate": rec["failed"] / rec["attempted"],
    }


def per_layer(rec) -> dict:
    tr = rec["tracer"]
    traced = {i for i, _dt, t, _pos in rec["calls"] if t}
    setups = set(range(-len(rec["setup_times"]), 0))
    n, n_setup = max(1, len(traced)), len(setups)
    out = {}
    per_call, per_setup = tr.self_times(traced), tr.self_times(setups)
    for span, metric in TIMED_LAYERS:
        out[metric] = per_call.get(span, 0.0) * 1e3 / n
        out["setup." + metric] = per_setup.get(span, 0.0) * 1e3 / n_setup
    nnz, secs = tr.pack_totals()
    out["taco.pack_nnz_per_s"] = _ratio(nnz, secs)
    memo = [hit for call, hit in tr.memo if call in traced]
    out["api.operand_memo_hit_ratio"] = _ratio(sum(memo), len(memo))
    out["api.operand_memo_lookups"] = len(memo) / n

    d = rec["deltas"]
    calls = len(rec["calls"])
    for layer in ("kernel", "partition"):
        lookups = d[f"{layer}_hits"] + d[f"{layer}_misses"]
        out[f"core.{layer}_hit_ratio"] = _ratio(d[f"{layer}_hits"], lookups)
        out[f"core.{layer}_lookups"] = lookups / calls
    out["core.cache_bytes"] = float(sum(
        rec["cache_stats"][f"{c}_bytes"]
        for c in ("kernel", "partition", "decision", "aot")
    ))
    out["legion.trace_hit_ratio"] = _ratio(
        d["trace_hits"], d["trace_hits"] + d["trace_records"]
    )
    # Per call over the first rotation: every rotation repeats it exactly,
    # and a mean over a fixed set of calls rounds the same way every run.
    period = rec["workload"].period
    out["legion.sim_s"] = math.fsum(rec["sims"][:period]) / period
    out["legion.comm_bytes"] = math.fsum(rec["comms"][:period]) / period
    out["codegen.fallbacks"] = d.get("codegen_fallbacks", 0) / calls
    out["codegen.binds"] = d.get("codegen_binds", 0) / calls
    leaf_s = tr.self_times().get("kernels.leaf", 0.0)
    out["kernels.leaf_gbps"] = _ratio(tr.leaf_bytes, leaf_s) / 1e9
    out["analysis.predict_drift_s"] = rec["invariants"].drift
    out["analysis.inexact_drift_s"] = rec["invariants"].inexact_drift

    traced_t = [dt for _i, dt, t, _pos in rec["calls"] if t]
    plain_t = [dt for _i, dt, t, _pos in rec["calls"] if not t]
    out["trace.call_ms_p50"] = _median(traced_t) * 1e3
    out["trace.untraced_call_ms_p50"] = _median(plain_t) * 1e3
    out["trace.overhead_ratio"] = _median(traced_t) / _median(plain_t)
    out["trace.root_self_share"] = _ratio(per_call.get("call", 0.0), sum(traced_t))
    return out


def _declared(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))

    rec = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if not rec["calls"]:
        print(f"error: all {rec['attempted']} calls failed", file=sys.stderr)
        return 1
    wl = rec["workload"]
    values = per_layer(rec) if args.trace else end_to_end(rec)
    if args.trace:
        path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        rec["tracer"].write_jsonl(path)
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "sizes": wl.sizes(),
        "calls": len(rec["calls"]), "setups": len(rec["setup_times"]),
        "host": _host_facts(),
    }))
    units = {m["name"]: m["unit"] for m in declared}
    units.setdefault("error_rate", "ratio")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units.get(name, '')}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
