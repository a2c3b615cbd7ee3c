"""The leaves scenario's contracts, one sweep per timing.

``tools/bench_check.py --scenario leaves`` times many sweeps; here each
sweep runs once (the SpMV one on a small matrix) and must still satisfy
the unconditional contracts: values within ``RTOL`` of the references
and every kernel's simulated metrics equal to ``predict_metrics``.
"""
from repro.bench.leavesbench import run_leaves_bench


def test_contracts_hold():
    r = run_leaves_bench(n=2000, density=1e-3, iterations=1, repeats=1,
                         nonzeros_iterations=1)
    assert r.values_match, (r.max_rel_error, r.nonzeros_max_rel_error)
    assert r.metrics_match_prediction
    assert r.nonzeros_metrics_match
    assert r.leaf_s > 0 and r.nonzeros_leaf_s > 0
