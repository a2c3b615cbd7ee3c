"""AOT module cache keying: fingerprint stability and invalidation.

Generated modules are keyed by the stable schedule fingerprint (schedule
signature + tensor pattern versions + machine signature).  Editing any
fingerprint input must force a re-lowering; an unchanged fingerprint must
resolve to the *same* exec-loaded module object with zero lowering work.
The warm-start contract (artifact store round trip re-seeds the cache
without lowering) is asserted here too.
"""
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.codegen import codegen_stats, reset_codegen_stats
from repro.core import cache as _cache
from repro.core import clear_caches, compile_kernel
from repro.core.store import MANIFEST_NAME, file_sha256, stable_fingerprint
from repro.core.store_index import ArtifactStore
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

N, M, PIECES = 60, 48, 4


@pytest.fixture(autouse=True)
def isolated():
    clear_caches()
    reset_codegen_stats()
    yield
    clear_caches()
    reset_codegen_stats()


def make_workload(seed=7):
    rng = np.random.default_rng(seed)
    A = sp.random(N, M, density=0.1, random_state=rng, format="csr")
    B = Tensor.from_scipy("B", A, CSR)
    c = Tensor.from_dense("c", np.random.default_rng(3).random(M))
    a = Tensor.zeros("a", (N,))
    return B, c, a


def spmv_schedule(B, c, a, pieces=PIECES):
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    return (a.schedule().divide(i, io, ii, pieces).distribute(io)
            .communicate([a, B, c], io))


def compile_and_run(sched, machine):
    ck = compile_kernel(sched, machine, backend="codegen")
    ck.execute(Runtime(machine))
    return ck


class TestFingerprintKeying:
    def test_unchanged_fingerprint_reuses_module_object(self):
        machine = Machine.cpu(PIECES)
        B, c, a = make_workload()
        s1 = spmv_schedule(B, c, a)
        compile_and_run(s1, machine)
        assert codegen_stats()["lowered"] == 1
        key = stable_fingerprint(s1, machine)
        entry1 = _cache.lookup_aot(key)
        assert entry1 is not None and entry1.module is not None

        B2, c2, a2 = make_workload()  # identical content, fresh tensors
        s2 = spmv_schedule(B2, c2, a2)
        assert stable_fingerprint(s2, machine) == key
        compile_and_run(s2, machine)
        entry2 = _cache.lookup_aot(key)
        assert entry2.module is entry1.module  # identity, not equality
        assert codegen_stats()["lowered"] == 1  # no re-lowering

    def test_pattern_version_bump_forces_relowering(self):
        machine = Machine.cpu(PIECES)
        B, c, a = make_workload()
        compile_and_run(spmv_schedule(B, c, a), machine)
        assert codegen_stats()["lowered"] == 1
        B._bump_pattern_version()
        B2, c2, a2 = make_workload()
        B2.pattern_version = B.pattern_version  # same bumped state
        compile_and_run(spmv_schedule(B2, c2, a2), machine)
        assert codegen_stats()["lowered"] == 2

    def test_machine_signature_change_forces_relowering(self):
        B, c, a = make_workload()
        compile_and_run(spmv_schedule(B, c, a), Machine.cpu(PIECES))
        assert codegen_stats()["lowered"] == 1
        B2, c2, a2 = make_workload()
        compile_and_run(spmv_schedule(B2, c2, a2), Machine.gpu(PIECES))
        assert codegen_stats()["lowered"] == 2

    def test_schedule_edit_forces_relowering(self):
        machine = Machine.cpu(PIECES)
        B, c, a = make_workload()
        compile_and_run(spmv_schedule(B, c, a), machine)
        assert codegen_stats()["lowered"] == 1
        B2, c2, a2 = make_workload()
        compile_and_run(spmv_schedule(B2, c2, a2, pieces=2), machine)
        assert codegen_stats()["lowered"] == 2


class TestStoreWarmStart:
    def test_round_trip_loads_with_zero_lowering(self, tmp_path):
        machine = Machine.cpu(PIECES)
        B, c, a = make_workload()
        sched = spmv_schedule(B, c, a)
        ck = compile_and_run(sched, machine)
        expected = np.array(a.to_dense(), copy=True)
        store = ArtifactStore(tmp_path / "store")
        store.put(B)  # persists the generated module under aot/

        clear_caches()
        reset_codegen_stats()
        B2, c2, a2 = make_workload()
        s2 = spmv_schedule(B2, c2, a2)
        store.load_latest(s2, machine)
        assert codegen_stats()["store_seeded"] == 1
        key = stable_fingerprint(s2, machine)
        entry = _cache.lookup_aot(key)
        assert entry is not None and entry.from_store
        ck2 = compile_kernel(s2, machine, backend="codegen")
        ck2.execute(Runtime(machine))
        stats = codegen_stats()
        assert stats["lowered"] == 0  # warm start: zero lowering work
        assert stats["binds"] >= 1  # ...but the generated leaf did run
        out = ck2.out.to_dense() if hasattr(ck2, "out") else a2.to_dense()
        np.testing.assert_array_equal(np.asarray(out).reshape(-1),
                                      expected.reshape(-1))

    def test_stale_stored_source_is_relowered(self, tmp_path):
        # An artifact whose module differs from today's template (saved by
        # an older build, manifest sha intact) must not be exec-loaded.
        machine = Machine.cpu(PIECES)
        B, c, a = make_workload()
        compile_and_run(spmv_schedule(B, c, a), machine)
        expected = np.array(a.to_dense(), copy=True)
        store = ArtifactStore(tmp_path / "store")
        store.put(B)
        art_dir = store.root / store.entries()[-1]["dir"]
        manifest = json.loads((art_dir / MANIFEST_NAME).read_text())
        for meta in manifest["aot_modules"]:
            mod = art_dir / meta["file"]
            stale = mod.read_text().replace("ov[...] = 0.0", "ov[...] = 1.0")
            assert stale != mod.read_text()
            mod.write_text(stale)
            meta["sha256"] = file_sha256(mod)
            meta["bytes"] = mod.stat().st_size
        (art_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))

        clear_caches()
        reset_codegen_stats()
        B2, c2, a2 = make_workload()
        s2 = spmv_schedule(B2, c2, a2)
        store.load_latest(s2, machine)
        stats = codegen_stats()
        assert stats["store_seeded"] == 0
        assert stats["store_stale"] == 1
        assert _cache.lookup_aot(stable_fingerprint(s2, machine)) is None
        compile_and_run(s2, machine)
        assert codegen_stats()["lowered"] == 1
        np.testing.assert_array_equal(a2.to_dense(), expected)
