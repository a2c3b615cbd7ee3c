"""Concurrency stress for the shared compile substrate and the Server.

Barrier-released thread herds hammer the two layers tenants contend on:

* the byte-budgeted LRU tiers (``_SizedLRU``) — no lost entries and exact
  byte/counter accounting after an interleaved put/get herd;
* the full ``repro.serve`` request path — compile/execute/autotune from
  many tenants at once, deduplicated to one build per signature (no
  double compile in the kernel cache) with responses bit-identical to
  serial execution.

Each herd lines up on a :class:`threading.Barrier` so every thread
releases into the critical section together — the schedule most likely to
expose a lost update or a duplicated build.  Single-iteration smoke herds
run unmarked in the fast tier-1 loop; the 50-iteration no-flake sweeps
(the acceptance criterion) are marked ``serving`` + ``slow``.
"""
import threading

import numpy as np
import pytest

import repro
from repro.core import cache_stats, clear_caches
from repro.core.cache import _SizedLRU

pytestmark = []  # smoke herds below stay unmarked (tier-1)

SWEEP = 50  # consecutive no-flake iterations for the full sweeps


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def run_herd(n_threads, worker):
    """Release ``n_threads`` copies of ``worker(tid)`` through one barrier;
    re-raise the first failure."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def wrap(tid):
        try:
            barrier.wait(timeout=30)
            worker(tid)
        except BaseException as e:  # noqa: BLE001 - surfaced after join
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(t,), name=f"herd-{t}")
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "herd thread hung"
    if errors:
        raise errors[0]


# --------------------------------------------------------------------- #
# layer 1: the byte-budgeted LRU under an interleaved herd
# --------------------------------------------------------------------- #
def _lru_herd(iteration: int) -> None:
    lru = _SizedLRU(budget_bytes=1 << 30, max_entries=10_000)
    n_threads, per_thread = 8, 50

    def worker(tid):
        for i in range(per_thread):
            lru.put((tid, i), f"v{tid}.{i}", nbytes=100)
            assert lru.get((tid, i)) == f"v{tid}.{i}"

    run_herd(n_threads, worker)
    # no lost entries: everything fits the budget, so every put survives
    assert len(lru) == n_threads * per_thread
    for tid in range(n_threads):
        for i in range(per_thread):
            assert lru.get((tid, i)) == f"v{tid}.{i}", "lost cache entry"
    assert lru.total_bytes == n_threads * per_thread * 100
    assert lru.hits == 2 * n_threads * per_thread  # worker + verify reads
    assert lru.misses == 0
    assert lru.evictions == 0


def test_lru_no_lost_entries_smoke():
    _lru_herd(0)


@pytest.mark.serving
@pytest.mark.slow
def test_lru_no_lost_entries_sweep():
    for i in range(SWEEP):
        _lru_herd(i)


def _lru_eviction_herd(iteration: int) -> None:
    # Budget forces constant eviction; accounting must stay exact anyway.
    lru = _SizedLRU(budget_bytes=1_000, max_entries=10_000)

    def worker(tid):
        for i in range(100):
            lru.put((tid, i), i, nbytes=100)
            lru.get((tid, i - 1))

    run_herd(8, worker)
    live = [k for k in list(lru.items())]
    assert lru.total_bytes <= 1_000
    assert lru.total_bytes == 100 * len(live)
    assert lru.evictions == 8 * 100 - len(live)


def test_lru_eviction_accounting_smoke():
    _lru_eviction_herd(0)


@pytest.mark.serving
@pytest.mark.slow
def test_lru_eviction_accounting_sweep():
    for i in range(SWEEP):
        _lru_eviction_herd(i)


# --------------------------------------------------------------------- #
# layer 2: the full serving path — compile/execute/autotune herds
# --------------------------------------------------------------------- #
N, K = 64, 4


def _make_data(iteration: int):
    rng = np.random.default_rng(1000 + iteration)
    B = rng.random((N, N)) * (rng.random((N, N)) < 0.15)
    return B, rng.random(N), rng.random((N, K))


def _serial_reference(B, x, C):
    clear_caches()
    with repro.session(nodes=2) as s:
        Bt = s.tensor("B", B, repro.CSR)
        ref_spmv = np.array(repro.einsum(
            "ij,j->i", Bt, s.tensor("x", x), session=s).to_dense(), copy=True)
        ref_spmm = np.array(repro.einsum(
            "ij,jk->ik", Bt, s.tensor("C", C), session=s).to_dense(), copy=True)
    return {"ij,j->i": ref_spmv, "ij,jk->ik": ref_spmm}


def _serving_herd(iteration: int, tune: bool) -> None:
    B, x, C = _make_data(iteration)
    ref = _serial_reference(B, x, C)
    clear_caches()
    misses_before = cache_stats()["kernel_misses"]
    requests = (("ij,j->i", ("B", "x")), ("ij,jk->ik", ("B", "C")))
    results = [[] for _ in range(12)]
    with repro.serve(nodes=2, workers=4, tune=tune) as srv:
        srv.put_tensor("B", B, repro.CSR)
        srv.put_tensor("x", x)
        srv.put_tensor("C", C)

        def worker(tid):
            futs = [srv.submit(spec, *names, tenant=f"t{tid}")
                    for spec, names in requests for _ in range(3)]
            results[tid] = [(f.result(timeout=120)) for f in futs]

        run_herd(12, worker)
        # dedup: one build per distinct signature across the whole herd
        assert srv.compiles == len(requests), (
            f"{srv.compiles} builds for {len(requests)} signatures"
        )
        per_sig_leaders = {}
        for row in results:
            for r in row:
                per_sig_leaders.setdefault(r.key, 0)
                per_sig_leaders[r.key] += bool(r.compiled)
        assert all(v == 1 for v in per_sig_leaders.values()), per_sig_leaders
    # no double compile under the herd: at most one per (kernel, strategy)
    misses = cache_stats()["kernel_misses"] - misses_before
    assert 0 < misses <= 2 * (3 if tune else 1)
    # bit-identical to serial — same spec, same answer, every response
    for row in results:
        for r in row:
            assert np.array_equal(r.value, ref[r.key[0]]), (
                f"response diverged from serial for {r.key[0]}"
            )


def test_serving_compile_execute_herd_smoke():
    _serving_herd(0, tune=False)


def test_serving_autotune_herd_smoke():
    _serving_herd(1, tune=True)


@pytest.mark.serving
@pytest.mark.slow
def test_serving_compile_execute_herd_sweep():
    for i in range(SWEEP):
        _serving_herd(i, tune=False)


@pytest.mark.serving
@pytest.mark.slow
def test_serving_autotune_herd_sweep():
    for i in range(SWEEP):
        _serving_herd(i, tune=True)
