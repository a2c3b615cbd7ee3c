"""Multi-tenant serving benchmark: 8 concurrent tenants vs isolated serial.

The scenario (see :mod:`repro.bench.servingbench`) drives a mixed
SpMV/SpMM/SDDMM open-loop load from 8 tenant threads through one
:class:`repro.Server` and replays the same request streams tenant-by-tenant
with cleared caches — the pre-serving world — as the baseline, checking
the serving contract:

* aggregate steady-state throughput >= 3x the isolated-serial baseline
  (the acceptance bar; compile/tune/pack amortization clears it, the load
  is GIL-bound either way),
* identical concurrent requests deduplicate to one compile/tune build
  (``Server.compiles`` == distinct signatures, and the herd's kernel-cache
  misses no more than one isolated tenant's),
* every response is bit-identical to the serial single-session reference,
* no admission rejections under the default (unbudgeted) load.

Each run appends a ``BENCH_serving_<timestamp>.json`` next to this file;
``tools/bench_check.py --scenario serving`` compares a fresh run against
the latest one and fails on >20% regression of the serving speedup.
"""
from pathlib import Path

import pytest

from repro.bench.servingbench import run_serving_bench, write_serving_report
from repro.core import clear_caches

HERE = Path(__file__).resolve().parent


@pytest.mark.benchmark(group="serving")
def test_serving_throughput_speedup(benchmark):
    clear_caches()
    result = benchmark.pedantic(run_serving_bench, rounds=1, iterations=1)
    benchmark.extra_info["serving_speedup"] = round(result.serving_speedup, 2)
    benchmark.extra_info["serving_rps"] = round(result.serving_throughput_rps, 1)
    benchmark.extra_info["serial_rps"] = round(result.serial_throughput_rps, 1)
    benchmark.extra_info["p50_ms"] = round(result.p50_latency_s * 1e3, 2)
    benchmark.extra_info["p99_ms"] = round(result.p99_latency_s * 1e3, 2)
    path = write_serving_report(result, HERE)
    benchmark.extra_info["report"] = str(path)

    # the contracts hold regardless of any baseline
    assert result.values_bit_identical, (
        "served responses diverged from the serial reference"
    )
    assert result.deduplicated, (
        f"compile/tune work not deduplicated to one build per distinct "
        f"request: {result.server_compiles} builds for "
        f"{result.distinct_requests} signatures, kernel_misses="
        f"{result.kernel_misses} (one isolated tenant misses "
        f"{result.serial_kernel_misses})"
    )
    assert result.rejections == 0, (
        f"{result.rejections} admission rejections under an unbudgeted load"
    )
    # the acceptance bar: >= 3x aggregate throughput over isolated tenants
    assert result.serving_speedup >= 3.0, (
        f"serving speedup {result.serving_speedup:.2f}x < 3x "
        f"(serving {result.serving_wall_s:.3f}s, "
        f"isolated serial {result.serial_wall_s:.3f}s for "
        f"{result.total_requests} requests)"
    )
