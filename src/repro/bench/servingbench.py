"""Serving benchmark: N concurrent tenants vs N isolated serial tenants.

The multi-tenant :class:`~repro.api.serving.Server` exists to amortize
SpDISTAL's compile/tune work *across* callers: one shared kernel cache,
partition memo and decision table serve every tenant, and
single-flight dedup makes N identical concurrent requests pay for one
build.  This scenario measures exactly that claim under a mixed-kernel
open-loop load — each of ``tenants`` logical tenants submits a rotation
of SpMV / SpMM / SDDMM requests (autotuned by default, the serving
layer's steady mode) from its own thread — against the **isolated-serial
baseline**: the pre-serving world where each tenant owns a private
substrate, i.e. the same request stream replayed tenant-by-tenant with
the process caches cleared between tenants, so every tenant re-pays
compile + autotune search.

Contracts checked unconditionally (a break fails regardless of baseline):

* **dedup-to-one** — across all tenants, the server builds exactly one
  entry per distinct request signature (``Server.compiles ==`` distinct
  requests) and the herd's kernel-cache misses
  (``cache_stats()["kernel_misses"]``) are no more than one isolated
  tenant's — no double compile under the concurrent herd;
* **bit-identical results** — every response equals the serial
  single-session reference exactly (``np.array_equal``, no tolerance);
* **no admission rejections** — the default (unbudgeted) load must never
  be shed;
* **aggregate speedup floor** — serving throughput >= ``3x`` the
  isolated-serial baseline throughput (the acceptance bar; compile/tune
  amortization, not thread parallelism, is what clears it — the load is
  GIL-bound either way).

The gated statistic for ``tools/bench_check.py --scenario serving`` is
``serving_speedup``; p50/p99 request latency and both throughputs ride
along in the ``BENCH_serving_<ts>.json`` report.
"""
from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.einsum import einsum
from ..api.serving import Server
from ..api.session import Session
from ..core import cache_stats, clear_caches
from ..taco.formats import CSR
from ..taco.tensor import Tensor
from .models import default_config

__all__ = [
    "ServingBenchParams",
    "ServingBenchResult",
    "run_serving_bench",
    "write_serving_report",
]


@dataclass(frozen=True)
class ServingBenchParams:
    """Shape of the scenario: the tenant herd and the shared operand set.

    SpMV and SpMM run over the large ``n`` x ``n`` operand (packing it is
    the dominant per-tenant substrate cost the serial baseline re-pays);
    SDDMM runs over a smaller, denser ``sddmm_n`` matrix so its sampled
    sparse output stays cheap to render per response — the mix exercises
    the sparse-output path without letting response copies dominate either
    leg.
    """

    tenants: int = 8
    requests_per_tenant: int = 6  # rotation over the kernel mix below
    workers: int = 4  # serving pool size
    nodes: int = 2  # simulated machine per session
    n: int = 4_000  # large square sparse operand side (SpMV / SpMM)
    k: int = 8  # dense inner dimension for SpMM
    density: float = 1e-3
    sddmm_n: int = 500  # smaller SDDMM operand side
    sddmm_k: int = 16
    sddmm_density: float = 1e-2
    seed: int = 53
    tune: bool = True  # steady serving mode: autotuned requests
    trials: int = 2


#: The mixed-kernel request rotation: (label, spec, operand names, CSR out?).
_KERNELS: Tuple[Tuple[str, str, Tuple[str, ...], bool], ...] = (
    ("spmv", "ij,j->i", ("B", "x"), False),
    ("spmm", "ij,jk->ik", ("B", "C"), False),
    ("sddmm", "ij,ik,kj->ij", ("Bs", "Cs", "Ds"), True),
)


@dataclass
class ServingBenchResult:
    """Everything the benchmark and the regression gate assert on."""

    params: ServingBenchParams
    serving_wall_s: float
    serial_wall_s: float  # isolated tenants, total
    latencies_s: List[float] = field(default_factory=list)
    total_requests: int = 0
    distinct_requests: int = 0
    server_compiles: int = 0
    kernel_misses: int = 0  # kernel-cache misses under the herd
    serial_kernel_misses: int = 0  # same count for ONE isolated tenant
    values_bit_identical: bool = False
    rejections: int = 0

    @property
    def serving_throughput_rps(self) -> float:
        return self.total_requests / self.serving_wall_s

    @property
    def serial_throughput_rps(self) -> float:
        return self.total_requests / self.serial_wall_s

    @property
    def serving_speedup(self) -> float:
        """Aggregate serving throughput over the isolated-serial baseline."""
        return self.serial_wall_s / self.serving_wall_s

    @property
    def p50_latency_s(self) -> float:
        return float(np.percentile(self.latencies_s, 50))

    @property
    def p99_latency_s(self) -> float:
        return float(np.percentile(self.latencies_s, 99))

    @property
    def deduplicated(self) -> bool:
        """Compile/tune work collapsed to one build per distinct request."""
        return (self.server_compiles == self.distinct_requests
                and 0 < self.kernel_misses <= self.serial_kernel_misses)


def _operands(p: ServingBenchParams) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(p.seed)
    return {
        "B": rng.random((p.n, p.n)) * (rng.random((p.n, p.n)) < p.density),
        "x": rng.random(p.n),
        "C": rng.random((p.n, p.k)),
        "Bs": (rng.random((p.sddmm_n, p.sddmm_n))
               * (rng.random((p.sddmm_n, p.sddmm_n)) < p.sddmm_density)),
        "Cs": rng.random((p.sddmm_n, p.sddmm_k)),
        "Ds": rng.random((p.sddmm_k, p.sddmm_n)),
    }


def _tenant_stream(p: ServingBenchParams, tenant: int):
    """The (deterministic) request rotation one tenant issues."""
    for r in range(p.requests_per_tenant):
        yield _KERNELS[(tenant + r) % len(_KERNELS)]


def _pack(s: Session, data) -> Dict[str, Tensor]:
    return {
        name: s.tensor(name, arr, CSR if name in ("B", "Bs") else None)
        for name, arr in data.items()
    }


def _run_one(s: Session, packed, p: ServingBenchParams, label, spec, names,
             sparse_out, tag: str) -> np.ndarray:
    out = None
    if sparse_out:
        out = Tensor.zeros(f"{label}_out_{tag}", packed[names[0]].shape, CSR)
    res = einsum(spec, *[packed[n] for n in names], session=s, out=out,
                 autotune=p.tune, trials=p.trials, name=f"{label}_out_{tag}")
    return np.array(res.to_dense(), copy=True)


def _serial_reference(p: ServingBenchParams, machine, data
                      ) -> Dict[str, np.ndarray]:
    """One clean session's value per kernel label — the equality oracle."""
    clear_caches()
    ref: Dict[str, np.ndarray] = {}
    with Session(machine=machine) as s:
        packed = _pack(s, data)
        for label, spec, names, sparse_out in _KERNELS:
            ref[label] = _run_one(s, packed, p, label, spec, names,
                                  sparse_out, "ref")
    return ref


def _run_serial_isolated(p: ServingBenchParams, machine, data
                         ) -> Tuple[float, int]:
    """The baseline: each tenant re-pays the whole substrate.

    Caches are cleared per tenant — the pre-serving world where tenants
    cannot share a warm process — and each replays its request rotation
    serially on a private session.  Returns (total wall seconds, the
    kernel-cache misses of the *first* tenant — the per-tenant build bill).
    """
    total = 0.0
    first_misses = 0
    for tenant in range(p.tenants):
        clear_caches()
        misses_before = cache_stats()["kernel_misses"]
        t0 = time.perf_counter()  # nondet: ok measures host serving overhead, not simulated time
        with Session(machine=machine) as s:
            packed = _pack(s, data)
            for r, (label, spec, names, sparse_out) in enumerate(
                    _tenant_stream(p, tenant)):
                _run_one(s, packed, p, label, spec, names, sparse_out,
                         f"t{tenant}r{r}")
        total += time.perf_counter() - t0  # nondet: ok measures host serving overhead, not simulated time
        if tenant == 0:
            first_misses = cache_stats()["kernel_misses"] - misses_before
    return total, first_misses


def run_serving_bench(
    params: Optional[ServingBenchParams] = None, **overrides
) -> ServingBenchResult:
    """Run the full scenario; see the module docstring.

    Keyword overrides (``tenants=..., tune=...``) adjust
    :class:`ServingBenchParams`.
    """
    p = params or ServingBenchParams(**overrides)
    cfg = default_config()
    machine = cfg.cpu_machine(p.nodes)
    data = _operands(p)

    reference = _serial_reference(p, machine, data)
    serial_wall, serial_misses = _run_serial_isolated(p, machine, data)

    # The serving leg: one shared substrate, tenants submit concurrently.
    clear_caches()
    misses_before = cache_stats()["kernel_misses"]
    results: List = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    t0 = time.perf_counter()  # nondet: ok measures host serving overhead, not simulated time
    with Server(machine=machine, workers=p.workers, tune=p.tune,
                trials=p.trials) as srv:
        for name, arr in data.items():
            srv.put_tensor(name, arr, CSR if name in ("B", "Bs") else None)

        def tenant_loop(tenant: int) -> None:
            # Open loop: submit the whole rotation without waiting, then
            # gather — queueing shows up in the latency numbers.
            futs = []
            try:
                for label, spec, names, sparse_out in _tenant_stream(p, tenant):
                    futs.append((label, srv.submit(
                        spec, *names, tenant=f"tenant{tenant}",
                        out_format=CSR if sparse_out else None,
                    )))
                got = [(label, f.result(timeout=300)) for label, f in futs]
                with lock:
                    results.extend(got)
            except BaseException as e:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(e)

        threads = [threading.Thread(target=tenant_loop, args=(i,),
                                    name=f"tenant{i}")
                   for i in range(p.tenants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        serving_wall = time.perf_counter() - t0  # nondet: ok measures host serving overhead, not simulated time
        if errors:
            raise errors[0]
        server_compiles = srv.compiles
        rejections = sum(v.rejected for v in srv.tenant_stats().values())
    kernel_misses = cache_stats()["kernel_misses"] - misses_before

    distinct = len({(label, tuple(names), sparse_out)
                    for tenant in range(p.tenants)
                    for label, _, names, sparse_out in _tenant_stream(p, tenant)})
    values_ok = all(np.array_equal(r.value, reference[label])
                    for label, r in results)
    return ServingBenchResult(
        params=p,
        serving_wall_s=serving_wall,
        serial_wall_s=serial_wall,
        latencies_s=[r.latency_s for _, r in results],
        total_requests=len(results),
        distinct_requests=distinct,
        server_compiles=server_compiles,
        kernel_misses=kernel_misses,
        serial_kernel_misses=serial_misses,
        values_bit_identical=values_ok,
        rejections=rejections,
    )


def write_serving_report(result: ServingBenchResult, directory) -> Path:
    """Write the ``BENCH_serving_<ts>.json`` baseline for
    ``tools/bench_check.py`` (one schema definition, like the other
    scenarios' reporters)."""
    payload = {
        "scenario": "serving",
        "timestamp": time.strftime("%Y%m%d-%H%M%S"),
        "params": asdict(result.params),
        "serving_speedup": result.serving_speedup,
        "serving_throughput_rps": result.serving_throughput_rps,
        "serial_throughput_rps": result.serial_throughput_rps,
        "p50_latency_ms": result.p50_latency_s * 1e3,
        "p99_latency_ms": result.p99_latency_s * 1e3,
        "total_requests": result.total_requests,
        "distinct_requests": result.distinct_requests,
        "server_compiles": result.server_compiles,
        "kernel_misses": result.kernel_misses,
        "serial_kernel_misses": result.serial_kernel_misses,
        "values_bit_identical": result.values_bit_identical,
        "rejections": result.rejections,
    }
    path = Path(directory) / f"BENCH_serving_{payload['timestamp']}.json"
    path.write_text(json.dumps(payload, indent=2))
    return path
