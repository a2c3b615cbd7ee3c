#!/usr/bin/env python
"""Regression gate for the compile-once / run-many fast paths.

Seven gated scenarios, each compared against its most recent
``benchmarks/BENCH_<scenario>_*.json`` baseline:

* **iterative** — the in-process amortization: the iterative-SpMV loop run
  cached and on the seed path in the same process.  The gated statistic is
  the *steady-state speedup* (seed time / cached time): absolute
  wall-clock varies wildly across processes on shared CI boxes, but the
  within-process ratio is stable, and a >20% regression of the cached
  iteration time shows up directly as a >20% drop of that ratio.

* **warmstart** — the cross-process amortization: a parent warms every
  cache layer and saves the artifact store; a fresh process loads it.  The
  gated statistic is the *warm-start speedup* (cold process first
  iteration / warm process first iteration).  Both legs are subprocesses
  on the same box, so the ratio is again the stable quantity.  The
  warm-start *contract* (kernel-cache hit, zero partition misses, no trace
  re-record, bit-identical metrics) is checked unconditionally — a
  contract break fails regardless of any baseline.

* **figures** — the warm-started figure drivers: one fig10 sweep run with
  packed operands rebuilt per trial (seed behavior) and again through the
  packed-operand warm store (``repro.bench.warmstore``).  Checked
  unconditionally: the warm-started series must be bit-identical to the
  rebuilt-tensor baseline, and the artifact store must pass its integrity
  check (index entries resolve, blobs match their sha256, no orphaned
  payloads) before *and* after a ``gc(keep_latest=1)`` compaction.  The gated statistic is the
  warm-over-rebuilt wall-clock speedup.

* **leaves** — a sweep of the bound SpMV rows leaf on the iterative-SpMV
  kernel against SciPy's ``A @ x``, and a sweep of the non-zeros leaves
  of the fused SDDMM→SpMM and CSF3 MTTKRP kernels on 4 GPUs against
  their NumPy/SciPy formulas, each on the same operands in the same
  process.  Checked unconditionally: values within 1e-12 relative of the
  references, and every kernel's simulated metrics equal to
  ``predict_metrics``.  The gated statistics are the reference-time over
  leaf-time ratios of both sweeps.

* **fusion** — the pass pipeline's SDDMM→SpMM kernel fusion against the
  unfused two-statement chain (the fused statement inherits the
  consumer's distribution strategy, so both sides accumulate the output
  in the same float order).  Checked
  unconditionally: the fused output is bit-identical to the unfused
  chain, the warm-trial communication volume is strictly lower, and the
  peak resident footprint is strictly smaller (the intermediate sparse
  product never materializes as a resident region).  The gated statistic
  is the warm communication-bytes reduction ratio.

* **serving** — the multi-tenant serving layer: 8 tenant threads drive a
  mixed SpMV/SpMM/SDDMM open-loop load through one ``repro.Server``
  against the isolated-serial baseline (the same streams replayed
  tenant-by-tenant with cleared caches).  Checked unconditionally:
  identical concurrent requests deduplicate to one compile/tune build,
  responses are bit-identical to the serial reference, nothing is shed
  under an unbudgeted load, and aggregate throughput clears a 3x
  acceptance floor.  The gated statistic is the serving speedup.

* **autotune** — ``Session.autotune`` against the hand-written schedules
  on the figure workloads.  Checked unconditionally, per workload: the
  tuned steady trial must be within 5% of the *best* hand-written
  strategy's (the tuner matches or beats the paper's schedules), the
  tuner must pick the strategy the paper's schedule uses where the cost
  model agrees with the paper (CPU → rows, skewed GPU SpMM → non-zeros),
  and the striped square-grid SpMM workload must select the 2-D ``grid``
  strategy.  The gated statistic is the geomean best-hand/tuned margin.

Exits non-zero on regression.  Usage::

    PYTHONPATH=src python tools/bench_check.py            # compare all seven
    PYTHONPATH=src python tools/bench_check.py --write    # (re)record baselines
    PYTHONPATH=src python tools/bench_check.py --scenario iterative
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks"
ITERATIONS = 50


def _import_repro():
    sys.path.insert(0, str(REPO / "src"))


def latest_baseline(scenario: str):
    # Sort by the timestamp embedded in the filename (lexicographically
    # ordered), not mtime — checkout order must not pick the baseline.
    # Baselines are machine-local (gitignored): a fresh machine records its
    # own on first run instead of comparing against another host's clock.
    candidates = sorted(BENCH_DIR.glob(f"BENCH_{scenario}_*.json"))
    return candidates[-1] if candidates else None


def _gate_ratios(scenario: str, fresh: dict, write: bool, threshold: float,
                 record) -> int:
    """Compare each ``fresh[stat_name]`` against the latest baseline's
    ``stat_name``, each held to its own floor; ``record()`` writes a new
    baseline file and returns its path."""
    if write:
        path = record()
        print(f"baseline written: {path.name}")
        return 0
    baseline_path = latest_baseline(scenario)
    if baseline_path is None:
        path = record()
        print(f"no BENCH_{scenario}_*.json baseline found; recorded {path.name}")
        return 0
    baseline = json.loads(baseline_path.read_text())
    rc = 0
    for stat_name, fresh_value in fresh.items():
        base = baseline.get(stat_name)
        if not base:
            print(f"baseline {baseline_path.name} lacks {stat_name}; ignoring")
            continue
        floor = base * (1.0 - threshold)
        print(f"baseline {baseline_path.name}: {stat_name} {base:.2f}x "
              f"-> floor {floor:.2f}x")
        if fresh_value < floor:
            print(f"FAIL: {stat_name} dropped to {fresh_value:.2f}x "
                  f"(> {100 * threshold:.0f}% regression vs {base:.2f}x)")
            rc = 1
        else:
            print("OK: within threshold")
    return rc


# --------------------------------------------------------------------------- #
# scenario: iterative (in-process amortization)
# --------------------------------------------------------------------------- #
def check_iterative(write: bool, threshold: float) -> int:
    from repro.bench.iterative import run_iterative_spmv, write_bench_report
    from repro.core import clear_caches

    # Warm-up stabilizes allocator/import effects; drop its cache entries
    # so the measured runs don't carry its object graph.
    run_iterative_spmv(iterations=3, cached=True)
    clear_caches()
    best_c = best_u = None
    for _ in range(3):  # best-of-3 guards against scheduler noise
        c = run_iterative_spmv(iterations=ITERATIONS, cached=True)
        clear_caches()
        u = run_iterative_spmv(iterations=ITERATIONS, cached=False)
        if best_c is None or c.wall_steady < best_c.wall_steady:
            best_c = c
        if best_u is None or u.wall_steady < best_u.wall_steady:
            best_u = u
    speedup = best_u.wall_steady / best_c.wall_steady
    print(f"iterative: cached {best_c.wall_steady * 1e3:.3f} ms/iter, "
          f"seed {best_u.wall_steady * 1e3:.3f} ms/iter, "
          f"speedup {speedup:.2f}x ({best_c.trace_hits} trace replays)")
    return _gate_ratios(
        "iterative", {"steady_speedup": speedup}, write, threshold,
        lambda: write_bench_report(best_c, best_u, BENCH_DIR),
    )


# --------------------------------------------------------------------------- #
# scenario: warmstart (cross-process amortization)
# --------------------------------------------------------------------------- #
def check_warmstart(write: bool, threshold: float) -> int:
    from repro.bench.warmstart import run_warmstart, write_warmstart_report
    from repro.core import clear_caches

    clear_caches()
    result = run_warmstart(iterations=20)
    print(f"warmstart: cold first {result.cold_first_s * 1e3:.3f} ms, "
          f"warm first {result.warm_first_s * 1e3:.3f} ms, "
          f"speedup {result.warmstart_speedup:.2f}x")

    # The contract is gated unconditionally — no baseline required.
    broken = []
    if not result.warm_first_hit_kernel_cache:
        broken.append("first compile missed the kernel cache")
    if result.warm_first_partition_misses:
        broken.append(f"{result.warm_first_partition_misses} partition misses")
    if result.warm_first_trace_records:
        broken.append(f"{result.warm_first_trace_records} trace re-records")
    if not result.metrics_bit_identical:
        broken.append("simulated metrics diverged from the in-process path")
    if not result.checksum_bit_identical:
        broken.append("numeric checksum diverged from the in-process path")
    if broken:
        print("FAIL: warm-start contract broken: " + "; ".join(broken))
        return 1
    print("warm-start contract holds (kernel hit, no re-partitioning, "
          "no re-record, bit-identical metrics)")
    return _gate_ratios(
        "warmstart", {"warmstart_speedup": result.warmstart_speedup}, write,
        threshold, lambda: write_warmstart_report(result, BENCH_DIR),
    )


# --------------------------------------------------------------------------- #
# scenario: figures (warm-started figure drivers + store integrity)
# --------------------------------------------------------------------------- #
def check_figures(write: bool, threshold: float) -> int:
    import shutil
    import tempfile
    import time

    from repro.bench import warmstore
    from repro.bench.figures import fig10
    from repro.bench.models import default_config
    from repro.core import clear_caches

    cfg = default_config(dataset_scale=0.2)
    kw = dict(node_counts=(1, 2, 4), datasets=["arabic-2005", "nlpkkt240"])

    def run_fig():
        t0 = time.perf_counter()
        series = fig10("spmv", cfg, **kw).data["series"]
        return series, time.perf_counter() - t0

    tmp = tempfile.mkdtemp(prefix="spdistal-figstore-")
    try:
        # Rebuilt-tensor baseline (the seed behavior: re-pack every trial).
        warmstore.set_warm_store(None)
        warmstore.set_warm_memo_enabled(False)
        rebuilt_series, best_rebuilt = None, None
        for _ in range(3):  # best-of-3 guards against scheduler noise
            clear_caches()
            rebuilt_series, wall = run_fig()
            best_rebuilt = wall if best_rebuilt is None else min(best_rebuilt, wall)

        # Warm-started path: prime the store once, then measure runs whose
        # packed operands come from load_packed (memo cleared per run — the
        # fresh-process stand-in).
        warmstore.set_warm_memo_enabled(True)
        store = warmstore.set_warm_store(tmp)
        warmstore.clear_warm_memo()
        clear_caches()
        run_fig()  # prime: publishes the packed operands
        warm_series, best_warm = None, None
        for _ in range(3):
            warmstore.clear_warm_memo()
            clear_caches()
            warm_series, wall = run_fig()
            best_warm = wall if best_warm is None else min(best_warm, wall)

        # Contracts, gated unconditionally (no baseline required).
        if warm_series != rebuilt_series:
            print("FAIL: warm-started figure series diverged from the "
                  "rebuilt-tensor baseline")
            return 1
        problems = store.verify()
        if not problems:
            store.gc(keep_latest=1)
            problems = store.verify()
        if problems:
            print("FAIL: store integrity: " + "; ".join(problems))
            return 1
        unresolved = [e["id"] for e in store.entries()
                      if store.resolve(e["keys"][0]) is None]
        if unresolved:
            print(f"FAIL: index entries do not resolve: {unresolved}")
            return 1
        speedup = best_rebuilt / best_warm
        print(f"figures: rebuilt {best_rebuilt * 1e3:.1f} ms, "
              f"warm {best_warm * 1e3:.1f} ms, speedup {speedup:.2f}x; "
              "series bit-identical, store integrity holds after gc")

        def record():
            import json as _json

            payload = {
                "scenario": "figures",
                "timestamp": time.strftime("%Y%m%d-%H%M%S"),
                "figures_warm_speedup": speedup,
                "rebuilt_wall_s": best_rebuilt,
                "warm_wall_s": best_warm,
            }
            path = BENCH_DIR / f"BENCH_figures_{payload['timestamp']}.json"
            path.write_text(_json.dumps(payload, indent=2))
            return path

        return _gate_ratios("figures", {"figures_warm_speedup": speedup},
                            write, threshold, record)
    finally:
        warmstore.set_warm_store(None)
        warmstore.set_warm_memo_enabled(True)
        warmstore.clear_warm_memo()
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------------- #
# scenario: autotune (tuner vs the best hand-written schedule)
# --------------------------------------------------------------------------- #
def check_autotune(write: bool, threshold: float) -> int:
    import time

    import numpy as np

    from repro.bench.harness import (
        spdistal_autotuned, spdistal_spmm, spdistal_spmv,
    )
    from repro.bench.models import default_config
    from repro.core import clear_caches
    from repro.data.matrices import striped
    from repro.data.suite import load_matrix

    # Strategy crossovers are judged at the paper's rate balance
    # (rate_scale=1.0): the scaled RATE_SCALE model keeps per-event costs
    # (latency, task overhead) at Lassen values while shrinking the
    # data-proportional terms, which shifts marginal rows-vs-nonzeros
    # choices on the small stand-in datasets.  The within-5% contract is
    # pricing-independent either way (tuned and hand runs share the model).
    cfg = default_config(rate_scale=1.0, dataset_scale=0.2)
    rng = np.random.default_rng(3)
    nodes = 4
    SPMM_K = 32

    def spmv_args(mat):
        return (mat, rng.random(mat.shape[1]))

    def spmm_args(mat):
        return (mat, rng.random((mat.shape[1], SPMM_K)))

    # (label, kind, args, gpus, hand runner, expected winner or None)
    workloads = [
        ("fig10-spmv-cpu", "spmv", spmv_args(load_matrix("arabic-2005", 0.2)),
         None, spdistal_spmv, "rows"),
        ("fig10-spmm-cpu", "spmm", spmm_args(load_matrix("kmer_A2a", 0.2)),
         None, spdistal_spmm, "rows"),
        ("fig11-spmm-gpu", "spmm", spmm_args(load_matrix("twitter7", 0.2)),
         4, spdistal_spmm, "nonzeros"),
        ("striped-spmm-grid", "spmm",
         spmm_args(striped(2000, 30_000, heavy_frac=0.9, seed=9)),
         None, spdistal_spmm, "grid"),
    ]

    rows: list = []
    problems: list = []
    margins: list = []
    for label, kind, args, gpus, hand_runner, expected in workloads:
        clear_caches()
        hand = {}
        for strategy in ("rows", "nonzeros"):
            r = hand_runner(*args, nodes, cfg, gpus=gpus, strategy=strategy)
            if r.ok:
                hand[strategy] = r.seconds
        if not hand:
            problems.append(
                f"{label}: every hand-written strategy OOMed — no baseline "
                "to compare the tuner against"
            )
            continue
        best_hand = min(hand.values())
        clear_caches()
        tuned = spdistal_autotuned(kind, args, nodes, cfg, gpus=gpus)
        if not tuned.ok:
            problems.append(f"{label}: the tuned run OOMed")
            continue
        # The pruned search (static cost ranking, only the predicted best
        # trial-executes) must agree with the exhaustive one while doing
        # strictly less scratch work.
        clear_caches()
        pruned = spdistal_autotuned(kind, args, nodes, cfg, gpus=gpus,
                                    prune=True)
        if not pruned.ok:
            problems.append(f"{label}: the pruned tuned run OOMed")
            continue
        if pruned.strategy != tuned.strategy:
            problems.append(
                f"{label}: pruned search picked {pruned.strategy!r}, "
                f"exhaustive picked {tuned.strategy!r} — the static cost "
                "model disagrees with measurement"
            )
        if not (pruned.trials_run < tuned.trials_run):
            problems.append(
                f"{label}: pruned search ran {pruned.trials_run} trials, "
                f"not strictly fewer than exhaustive's {tuned.trials_run}"
            )
        margin = best_hand / tuned.seconds
        margins.append(margin)
        rows.append({
            "workload": label,
            "tuned_strategy": tuned.strategy,
            "tuned_s": tuned.seconds,
            "best_hand_s": best_hand,
            "hand_s": hand,
            "margin": margin,
            "exhaustive_trials": tuned.trials_run,
            "pruned_trials": pruned.trials_run,
            "pruned_strategy": pruned.strategy,
        })
        print(f"{label}: tuned[{tuned.strategy}] {tuned.seconds:.3e}s vs "
              f"best hand {best_hand:.3e}s (margin {margin:.3f}x); "
              f"pruned[{pruned.strategy}] {pruned.trials_run} trials vs "
              f"exhaustive {tuned.trials_run}")
        if tuned.seconds > best_hand * 1.05:
            problems.append(
                f"{label}: tuned {tuned.seconds:.3e}s is more than 5% worse "
                f"than the best hand-written {best_hand:.3e}s"
            )
        if expected is not None and tuned.strategy != expected:
            problems.append(
                f"{label}: tuner picked {tuned.strategy!r}, the paper's "
                f"schedule is {expected!r}"
            )
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    geomean = float(np.exp(np.mean(np.log(margins))))
    print(f"autotune contract holds on {len(rows)} workloads "
          f"(geomean margin {geomean:.3f}x, grid selected where striped)")

    def record():
        payload = {
            "scenario": "autotune",
            "timestamp": time.strftime("%Y%m%d-%H%M%S"),
            "autotune_margin": geomean,
            "workloads": rows,
        }
        path = BENCH_DIR / f"BENCH_autotune_{payload['timestamp']}.json"
        path.write_text(json.dumps(payload, indent=2))
        return path

    return _gate_ratios("autotune", {"autotune_margin": geomean}, write,
                        threshold, record)


# --------------------------------------------------------------------------- #
# scenario: leaves (bound SpMV rows and non-zeros leaves vs SciPy/NumPy)
# --------------------------------------------------------------------------- #
def check_leaves(write: bool, threshold: float) -> int:
    from repro.bench.leavesbench import RTOL, run_leaves_bench, write_leaves_report

    result = run_leaves_bench()
    print(f"leaves: leaf sweep {result.leaf_s * 1e3:.3f} ms, "
          f"SciPy A @ x {result.scipy_s * 1e3:.3f} ms, "
          f"ratio {result.scipy_ratio:.2f}x")
    print(f"leaves: non-zeros sweep {result.nonzeros_leaf_s * 1e3:.3f} ms, "
          f"NumPy/SciPy reference {result.nonzeros_ref_s * 1e3:.3f} ms, "
          f"ratio {result.nonzeros_ratio:.2f}x")
    # The leaf contract is unconditional — a break fails regardless of any
    # baseline: values match the references and the simulated metrics
    # match the static prediction.
    failures = []
    for label, err in (("SciPy", result.max_rel_error),
                       ("the non-zeros reference", result.nonzeros_max_rel_error)):
        if not err <= RTOL:
            failures.append(
                f"max relative error {err:.3e} against {label} exceeds {RTOL:g}"
            )
    if not result.metrics_match_prediction:
        failures.append("SpMV simulated metrics differ from predict_metrics")
    if not result.nonzeros_metrics_match:
        failures.append("non-zeros simulated metrics differ from predict_metrics")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("OK: contracts hold (max relative error "
          f"{max(result.max_rel_error, result.nonzeros_max_rel_error):.1e})")
    return _gate_ratios(
        "leaves",
        {"scipy_ratio": result.scipy_ratio,
         "nonzeros_ratio": result.nonzeros_ratio},
        write, threshold, lambda: write_leaves_report(result, BENCH_DIR),
    )


# --------------------------------------------------------------------------- #
# scenario: fusion (SDDMM→SpMM fused statement vs the unfused chain)
# --------------------------------------------------------------------------- #
def check_fusion(write: bool, threshold: float) -> int:
    import time

    import numpy as np

    from repro.api.autoschedule import auto_schedule
    from repro.core import clear_caches
    from repro.core.passes import FUSED_SDDMM_SPMM
    from repro.core.program import compile_program
    from repro.data.matrices import rmat
    from repro.legion import Machine, Runtime
    from repro.taco import CSR, Tensor, index_vars

    NODES, RANK = 8, 16
    machine = Machine.cpu(NODES)
    G = rmat(11, edge_factor=8, seed=2)
    n = G.shape[0]
    rng = np.random.default_rng(5)
    U_arr = rng.random((n, RANK)) * 0.1
    V_arr = rng.random((RANK, n)) * 0.1
    F_arr = rng.random((n, RANK))

    def build(consumer_strategy):
        """Fresh SDDMM→SpMM chain; the consumer's strategy is pinned so
        fused and unfused runs accumulate in the same float order."""
        B = Tensor.from_scipy("G", G, CSR)
        U = Tensor.from_dense("U", U_arr)
        V = Tensor.from_dense("V", V_arr)
        F = Tensor.from_dense("F", F_arr)
        E = Tensor.zeros("E", G.shape, CSR)
        H = Tensor.zeros("H", (n, RANK))
        i, j, k, i2, j2, k2 = index_vars("i j k i2 j2 k2")
        E[i, j] = B[i, j] * U[i, k] * V[k, j]
        H[i2, k2] = E[i2, j2] * F[j2, k2]
        scheds = [
            auto_schedule(E.assignment, machine),
            auto_schedule(H.assignment, machine,
                          strategy=consumer_strategy),
        ]
        return scheds, H

    def run(fuse, consumer_strategy):
        """Compile and execute one cold + one warm trial; returns the
        warm trial's metrics plus the post-run resident footprint."""
        scheds, H = build(consumer_strategy)
        cp = compile_program(scheds, machine, fuse=fuse)
        rt = Runtime(machine)
        cp.execute(rt)  # cold: first-touch placements, trace recording
        warm = cp.execute(rt)
        peak = max(rt.resident_bytes_per_proc().values())
        return cp, H.dense_array().copy(), warm, peak

    clear_caches()
    try:
        # The fused statement inherits the consumer's strategy, so one pin
        # fixes both sides' accumulation order (the bit-identity contract).
        # Under the row split the unfused chain must redistribute the
        # intermediate from the producer's non-zeros pieces to the
        # consumer's row pieces — the traffic fusion deletes.
        cp_f, h_fused, warm_f, peak_f = run(True, "rows")
        cp_u, h_unfused, warm_u, peak_u = run(False, "rows")
    finally:
        clear_caches()

    failures = []
    kinds = [ck.kind for ck in cp_f.kernels]
    if kinds != [FUSED_SDDMM_SPMM]:
        failures.append(
            f"the chain did not fuse to one {FUSED_SDDMM_SPMM} statement "
            f"(compiled kinds: {kinds})"
        )
    if len(cp_u) != 2:
        failures.append(f"the unfused reference compiled {len(cp_u)} "
                        "statements, expected 2")
    if not np.array_equal(h_fused, h_unfused):
        failures.append("fused output is not bit-identical to the "
                        "strategy-matched unfused chain")
    ref = (G.multiply(U_arr @ V_arr)) @ F_arr
    if not np.allclose(h_fused, ref):
        failures.append("fused output diverges from the dense reference")
    comm_f, comm_u = warm_f.total_comm_bytes(), warm_u.total_comm_bytes()
    if not comm_f < comm_u:
        failures.append(
            f"fused warm comm {comm_f:.0f} B is not strictly lower than "
            f"unfused {comm_u:.0f} B"
        )
    if not peak_f < peak_u:
        failures.append(
            f"fused peak resident footprint {peak_f:.0f} B is not strictly "
            f"smaller than unfused {peak_u:.0f} B"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    # The gated statistic is the fraction of warm communication fusion
    # deletes (a ratio would divide by zero — the fused row split moves
    # nothing at all on a warm trial).
    comm_saved = (comm_u - comm_f) / comm_u
    footprint_ratio = peak_u / peak_f
    print(f"fusion: warm comm {comm_u:.0f} -> {comm_f:.0f} B "
          f"({100 * comm_saved:.0f}% saved), peak footprint {peak_u:.0f} -> "
          f"{peak_f:.0f} B ({footprint_ratio:.2f}x less); fused output "
          "bit-identical to the strategy-matched unfused chain")

    def record():
        payload = {
            "scenario": "fusion",
            "timestamp": time.strftime("%Y%m%d-%H%M%S"),
            "fusion_comm_saved": comm_saved,
            "fusion_footprint_ratio": footprint_ratio,
            "fused_comm_bytes": comm_f,
            "unfused_comm_bytes": comm_u,
            "fused_peak_bytes": peak_f,
            "unfused_peak_bytes": peak_u,
        }
        path = BENCH_DIR / f"BENCH_fusion_{payload['timestamp']}.json"
        path.write_text(json.dumps(payload, indent=2))
        return path

    return _gate_ratios("fusion", {"fusion_comm_saved": comm_saved}, write,
                        threshold, record)


# --------------------------------------------------------------------------- #
# scenario: serving (multi-tenant amortization under a concurrent herd)
# --------------------------------------------------------------------------- #
def check_serving(write: bool, threshold: float) -> int:
    from repro.bench.servingbench import run_serving_bench, write_serving_report
    from repro.core import clear_caches

    clear_caches()
    result = run_serving_bench()
    print(f"serving: {result.total_requests} requests from "
          f"{result.params.tenants} tenants — serving "
          f"{result.serving_wall_s * 1e3:.0f} ms "
          f"({result.serving_throughput_rps:.1f} req/s, "
          f"p50 {result.p50_latency_s * 1e3:.1f} ms, "
          f"p99 {result.p99_latency_s * 1e3:.1f} ms), isolated serial "
          f"{result.serial_wall_s * 1e3:.0f} ms "
          f"({result.serial_throughput_rps:.1f} req/s), "
          f"speedup {result.serving_speedup:.2f}x")

    # The serving contract is unconditional — a break fails regardless of
    # any baseline: single-flight dedup of identical concurrent builds,
    # bit-identical responses, no shedding of an unbudgeted load, and the
    # >= 3x aggregate-throughput acceptance floor over isolated tenants.
    failures = []
    if not result.deduplicated:
        failures.append(
            f"compile/tune not deduplicated: {result.server_compiles} builds "
            f"for {result.distinct_requests} distinct signatures, "
            f"kernel_misses={result.kernel_misses} "
            f"(one tenant: {result.serial_kernel_misses})"
        )
    if not result.values_bit_identical:
        failures.append("responses diverged from the serial reference")
    if result.rejections:
        failures.append(f"{result.rejections} admission rejections under an "
                        "unbudgeted load")
    if result.serving_speedup < 3.0:
        failures.append(
            f"serving speedup {result.serving_speedup:.2f}x below the 3x floor"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"OK: contracts hold ({result.server_compiles} builds serve "
          f"{result.total_requests} requests)")

    return _gate_ratios(
        "serving", {"serving_speedup": result.serving_speedup}, write,
        threshold, lambda: write_serving_report(result, BENCH_DIR),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed relative regression of a gated speedup")
    ap.add_argument("--write", action="store_true",
                    help="record new baselines instead of comparing")
    ap.add_argument("--scenario",
                    choices=("iterative", "warmstart", "figures", "autotune",
                             "leaves", "fusion", "serving", "all"),
                    default="all")
    args = ap.parse_args(argv)

    _import_repro()
    rc = 0
    if args.scenario in ("iterative", "all"):
        rc |= check_iterative(args.write, args.threshold)
    if args.scenario in ("warmstart", "all"):
        rc |= check_warmstart(args.write, args.threshold)
    if args.scenario in ("figures", "all"):
        rc |= check_figures(args.write, args.threshold)
    if args.scenario in ("autotune", "all"):
        rc |= check_autotune(args.write, args.threshold)
    if args.scenario in ("leaves", "all"):
        rc |= check_leaves(args.write, args.threshold)
    if args.scenario in ("fusion", "all"):
        rc |= check_fusion(args.write, args.threshold)
    if args.scenario in ("serving", "all"):
        rc |= check_serving(args.write, args.threshold)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
