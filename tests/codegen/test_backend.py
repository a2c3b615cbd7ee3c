"""Codegen backend knobs, fallbacks, and generated-module plumbing."""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro import codegen
from repro.api.autoschedule import auto_schedule
from repro.codegen import (
    BACKENDS,
    codegen_backend,
    codegen_stats,
    reset_codegen_stats,
    set_codegen_backend,
)
from repro.core import cache as _cache
from repro.core import clear_caches, compile_kernel
from repro.legion import Machine, Runtime
from repro.taco import CSR, Tensor, index_vars

N, M, PIECES = 48, 40, 4


@pytest.fixture(autouse=True)
def isolated():
    clear_caches()
    reset_codegen_stats()
    prev = codegen_backend()
    yield
    set_codegen_backend(prev)
    clear_caches()
    reset_codegen_stats()


def spmv_workload(seed=11):
    rng = np.random.default_rng(seed)
    A = sp.random(N, M, density=0.15, random_state=rng, format="csr")
    B = Tensor.from_scipy("B", A, CSR)
    c = Tensor.from_dense("c", rng.random(M))
    a = Tensor.zeros("a", (N,))
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    sched = (a.schedule().divide(i, io, ii, PIECES).distribute(io)
             .communicate([a, B, c], io))
    return a, sched


class TestKnobs:
    def test_set_backend_returns_previous(self):
        prev = set_codegen_backend("interp")
        assert prev in BACKENDS
        assert codegen_backend() == "interp"
        assert set_codegen_backend("codegen") == "interp"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_codegen_backend("llvm")
        with pytest.raises(ValueError, match="unknown backend"):
            codegen.resolve_backend("llvm")

    def test_resolve_none_uses_default(self):
        set_codegen_backend("interp")
        assert codegen.resolve_backend(None) == "interp"
        assert codegen.resolve_backend("codegen") == "codegen"

    def test_session_validates_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            repro.Session(machine=Machine.cpu(PIECES), backend="bogus")

    def test_compile_statement_rejects_unknown_backend(self):
        a, sched = spmv_workload()
        with pytest.raises(ValueError, match="unknown backend"):
            compile_kernel(sched, Machine.cpu(PIECES), backend="bogus")


class TestFallbacks:
    def test_unsupported_format_falls_back_to_interpreter(self):
        # CSC stores levels column-major (mode_ordering (1, 0)); no lowering
        # template indexes permuted layouts, so codegen must route the
        # kernel back to the interpreter leaf and match it exactly.
        def build(seed=5):
            rng = np.random.default_rng(seed)
            A = sp.random(24, 24, density=0.2, random_state=rng,
                          format="csr")
            B = Tensor.from_scipy("B", A, repro.CSC)
            c = Tensor.from_dense("c", rng.random(24))
            a = Tensor.zeros("a", (24,))
            i, j = index_vars("i j")
            a[i] = B[i, j] * c[j]
            return a

        machine = Machine.cpu(PIECES)
        a1 = build()
        ck1 = compile_kernel(auto_schedule(a1, machine, strategy="rows"),
                             machine, backend="interp")
        ck1.execute(Runtime(machine))
        clear_caches()
        a2 = build()
        ck2 = compile_kernel(auto_schedule(a2, machine, strategy="rows"),
                             machine, backend="codegen")
        ck2.execute(Runtime(machine))
        stats = codegen_stats()
        assert stats["fallbacks"] >= 1
        assert stats["binds"] == 0
        np.testing.assert_array_equal(a1.to_dense(), a2.to_dense())

    def test_float32_output_falls_back_to_interpreter(self):
        # csr_matvec writes only a float64 output; a float32 result tensor
        # must take the interpreter leaf instead of failing at execute.
        def build(seed=5):
            rng = np.random.default_rng(seed)
            A = sp.random(24, 24, density=0.2, random_state=rng,
                          format="csr")
            B = Tensor.from_scipy("B", A, CSR)
            c = Tensor.from_dense("c", rng.random(24))
            a = Tensor.zeros("a", (24,), dtype=np.float32)
            i, j = index_vars("i j")
            a[i] = B[i, j] * c[j]
            return a

        machine = Machine.cpu(PIECES)
        a1 = build()
        ck1 = compile_kernel(auto_schedule(a1, machine, strategy="rows"),
                             machine, backend="interp")
        ck1.execute(Runtime(machine))
        clear_caches()
        a2 = build()
        ck2 = compile_kernel(auto_schedule(a2, machine, strategy="rows"),
                             machine, backend="codegen")
        ck2.execute(Runtime(machine))
        stats = codegen_stats()
        assert stats["fallbacks"] >= 1
        assert stats["binds"] == 0
        np.testing.assert_array_equal(a1.to_dense(), a2.to_dense())

    def test_float32_output_keeps_other_generated_leaves(self):
        # Only the csr_matvec leaf needs float64; SpMM rows stays generated.
        def build(seed=5):
            rng = np.random.default_rng(seed)
            A = sp.random(24, 24, density=0.2, random_state=rng,
                          format="csr")
            B = Tensor.from_scipy("B", A, CSR)
            C = Tensor.from_dense("C", rng.random((24, 3)))
            out = Tensor.zeros("A", (24, 3), dtype=np.float32)
            i, j, k = index_vars("i j k")
            out[i, k] = B[i, j] * C[j, k]
            return out

        machine = Machine.cpu(PIECES)
        a1 = build()
        ck1 = compile_kernel(auto_schedule(a1, machine, strategy="rows"),
                             machine, backend="interp")
        ck1.execute(Runtime(machine))
        clear_caches()
        a2 = build()
        ck2 = compile_kernel(auto_schedule(a2, machine, strategy="rows"),
                             machine, backend="codegen")
        ck2.execute(Runtime(machine))
        assert codegen_stats()["binds"] == 1
        np.testing.assert_array_equal(a1.to_dense(), a2.to_dense())

    def test_caches_disabled_falls_back(self):
        a, sched = spmv_workload()
        machine = Machine.cpu(PIECES)
        with _cache.caches_disabled():
            ck = compile_kernel(sched, machine, backend="codegen")
            ck.execute(Runtime(machine))
        stats = codegen_stats()
        assert stats["fallbacks"] >= 1
        assert stats["lowered"] == 0


class TestGeneratedModules:
    def test_backends_agree_exactly(self):
        machine = Machine.cpu(PIECES)
        a1, s1 = spmv_workload(seed=21)
        ck1 = compile_kernel(s1, machine, backend="interp")
        ck1.execute(Runtime(machine))
        clear_caches()
        a2, s2 = spmv_workload(seed=21)
        ck2 = compile_kernel(s2, machine, backend="codegen")
        ck2.execute(Runtime(machine))
        assert codegen_stats()["binds"] >= 1
        np.testing.assert_array_equal(a1.to_dense(), a2.to_dense())

    def test_dump_env_writes_generated_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_DUMP", str(tmp_path / "dump"))
        a, sched = spmv_workload()
        machine = Machine.cpu(PIECES)
        ck = compile_kernel(sched, machine, backend="codegen")
        ck.execute(Runtime(machine))
        dumped = list((tmp_path / "dump").glob("spmv_csr_*.py"))
        assert len(dumped) == 1
        text = dumped[0].read_text()
        assert "Generated by repro.codegen" in text
        assert "def bind(" in text

    def test_generated_module_carries_meta(self):
        a, sched = spmv_workload()
        machine = Machine.cpu(PIECES)
        ck = compile_kernel(sched, machine, backend="codegen")
        ck.execute(Runtime(machine))
        from repro.core.store import stable_fingerprint

        entry = _cache.lookup_aot(stable_fingerprint(sched, machine))
        assert entry is not None and entry.module is not None
        meta = entry.module.META
        assert meta["generator"] == "repro.codegen"
        assert (meta["kind"], meta["format"]) == ("spmv", "csr")
        assert entry.module.__aot_key__ == entry.key
