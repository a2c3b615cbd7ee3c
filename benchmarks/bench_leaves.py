"""Leaf benchmark: the bound leaves against same-process SciPy/NumPy.

The scenario (see :mod:`repro.bench.leavesbench`) times a full leaf sweep
of the iterative-SpMV kernel against SciPy's ``A @ x``, and one of the
fused SDDMM→SpMM and CSF3 MTTKRP non-zeros leaves against their
NumPy/SciPy formulas, on the same operands, and checks the leaf contract:

* the swept outputs match the references within 1e-12 relative, and
* every kernel's simulated metrics equal what ``predict_metrics``
  derives statically.

Each run appends a ``BENCH_leaves_<timestamp>.json`` next to this file;
``tools/bench_check.py --scenario leaves`` compares a fresh run against
the latest one and fails on >20% regression of either reference-time
over leaf-time ratio.
"""
from pathlib import Path

import pytest

from repro.bench.leavesbench import RTOL, run_leaves_bench, write_leaves_report

HERE = Path(__file__).resolve().parent


@pytest.mark.benchmark(group="leaves")
def test_leaves_against_scipy(benchmark):
    result = benchmark.pedantic(run_leaves_bench, rounds=1, iterations=1)
    benchmark.extra_info["scipy_ratio"] = round(result.scipy_ratio, 3)
    benchmark.extra_info["leaf_ms"] = round(result.leaf_s * 1e3, 4)
    benchmark.extra_info["scipy_ms"] = round(result.scipy_s * 1e3, 4)
    benchmark.extra_info["nonzeros_ratio"] = round(result.nonzeros_ratio, 3)
    benchmark.extra_info["nonzeros_leaf_ms"] = round(result.nonzeros_leaf_s * 1e3, 4)
    path = write_leaves_report(result, HERE)
    benchmark.extra_info["report"] = str(path)

    # the contracts hold regardless of any baseline
    assert result.values_match, (
        f"max relative errors {result.max_rel_error:.3e}, "
        f"{result.nonzeros_max_rel_error:.3e} > {RTOL:g}"
    )
    assert result.metrics_match_prediction
    assert result.nonzeros_metrics_match
