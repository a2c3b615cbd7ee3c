"""Two sessions on two threads over the shared process caches.

The smallest end-to-end statement of the thread-safety contract: two
:class:`repro.Session` objects running concurrently — same machine
structure, same statements — must (a) not corrupt or lose entries in the
shared kernel / partition / decision caches, (b) keep the
compile-once / run-many contract *within* each thread (the second
identical compile hits the cache no matter how the threads interleave),
and (c) produce results exactly equal to the same statements run serially
in one session.  Kernel fingerprints are identity-keyed per tensor, so
each thread's privately packed operands own private kernel entries —
cross-thread build sharing is the serving layer's catalog contract,
exercised in ``tests/serving`` — but the *tiers themselves* are shared
and must account exactly under the interleaving.  Small and unmarked:
this runs in the fast tier-1 loop.
"""
import threading

import numpy as np
import pytest

import repro
from repro.core import cache_stats, clear_caches
from repro.taco import Tensor

N, K = 60, 5


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_caches()
    yield
    clear_caches()


def make_data():
    rng = np.random.default_rng(21)
    B = rng.random((N, N)) * (rng.random((N, N)) < 0.12)
    return B, rng.random(N), rng.random((N, K))


def run_statements(s, B, x, C, tag):
    """Each statement twice against one reused output tensor: the second
    run must hit the kernel cache and reproduce the first bit-for-bit."""
    Bt = s.tensor("B", B, repro.CSR)
    xt, Ct = s.tensor("x", x), s.tensor("C", C)
    values = []
    for spec, ops, shape in (("ij,j->i", (Bt, xt), (N,)),
                             ("ij,jk->ik", (Bt, Ct), (N, K))):
        out = Tensor.zeros(f"out_{tag}_{len(values)}", shape)
        first = np.array(repro.einsum(
            spec, *ops, session=s, out=out).to_dense(), copy=True)
        second = np.array(repro.einsum(
            spec, *ops, session=s, out=out).to_dense(), copy=True)
        assert np.array_equal(first, second)  # run-many: bit-stable replay
        values.append(first)
    return values


def test_two_threaded_sessions_match_serial_exactly():
    B, x, C = make_data()

    # the serial oracle, then a clean slate for the threaded run
    with repro.session(nodes=2) as s:
        serial = run_statements(s, B, x, C, "serial")
    clear_caches()

    machine = repro.Machine.cpu(2)  # shared machine: one signature family
    results = {}
    errors = []
    barrier = threading.Barrier(2)

    def worker(name):
        try:
            with repro.Session(machine=machine) as s:
                barrier.wait(timeout=30)
                results[name] = run_statements(s, B, x, C, name)
        except BaseException as e:  # noqa: BLE001 - surfaced after join
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    assert set(results) == {"a", "b"}

    # exact equality: threaded sessions against serial, and each other
    for name in ("a", "b"):
        for got, want in zip(results[name], serial):
            assert np.array_equal(got, want)

    # no lost or duplicated entries in the shared tier: each thread owns
    # its two statements' entries (identity-keyed operands), and every
    # repeat compile was a hit — 4 entries, >= 4 hits, under interleaving
    stats = cache_stats()
    assert stats["kernel_entries"] == 4
    assert stats["kernel_hits"] >= 4
