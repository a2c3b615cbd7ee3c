"""Specialized leaf dispatch: format classes, dtypes and uncached binds.

Every case checks values against the dense reference (``A @ x`` / the
NumPy product): there is one leaf implementation per specialized kernel,
so there is nothing else to compare against.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro import codegen
from repro.api.autoschedule import auto_schedule
from repro.core import cache as _cache
from repro.core import clear_caches, compile_kernel
from repro.core.compiler import classify
from repro.legion import Machine, Runtime
from repro.legion.machine import Work
from repro.taco import CSF3, CSR, DDC, Tensor, index_vars

N, M, PIECES = 48, 40, 4


@pytest.fixture(autouse=True)
def isolated():
    clear_caches()
    yield
    clear_caches()


def spmv_workload(seed=11):
    rng = np.random.default_rng(seed)
    A = sp.random(N, M, density=0.15, random_state=rng, format="csr")
    x = rng.random(M)
    a = Tensor.zeros("a", (N,))
    B, c = Tensor.from_scipy("B", A, CSR), Tensor.from_dense("c", x)
    i, j, io, ii = index_vars("i j io ii")
    a[i] = B[i, j] * c[j]
    sched = (a.schedule().divide(i, io, ii, PIECES).distribute(io)
             .communicate([a, B, c], io))
    return A, x, a, sched


def _matrix(seed=5):
    rng = np.random.default_rng(seed)
    return sp.random(24, 30, density=0.2, random_state=rng, format="csr"), rng


MACHINES = pytest.mark.parametrize(
    "machine", [Machine.cpu(4), Machine.gpu(4)], ids=["nodes4", "gpus4"]
)


class TestFormatClass:
    def test_classes(self):
        A, _ = _matrix()
        mask = np.random.default_rng(1).random((4, 5, 6)) > 0.7
        assert codegen.format_class(Tensor.from_scipy("B", A, CSR)) == "csr"
        assert codegen.format_class(Tensor.from_scipy("B", A, repro.CSC)) is None
        assert codegen.format_class(Tensor.from_dense("D", A.toarray())) is None
        assert codegen.format_class(Tensor.from_dense("T", mask * 1.0, CSF3)) == "csf3"
        assert codegen.format_class(Tensor.from_dense("T", mask * 1.0, DDC)) == "ddc"


class TestPermutedOperands:
    """CSC stores levels column-major (mode ordering (1, 0)): no
    specialized leaf reads that layout, so the statement runs generic."""

    def test_csc_statement_classifies_generic(self):
        A, rng = _matrix()
        a = Tensor.zeros("a", (A.shape[0],))
        B = Tensor.from_scipy("B", A, repro.CSC)
        c = Tensor.from_dense("c", rng.random(A.shape[1]))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        assert classify(a.assignment).kind == "generic"

    @MACHINES
    def test_csc_spmv_matches_dense_reference(self, machine):
        A, rng = _matrix()
        x = rng.random(A.shape[1])
        with repro.session(machine=machine) as s:
            y = repro.einsum("ij,j->i", s.tensor("B", A, repro.CSC), x, session=s)
            np.testing.assert_allclose(y.to_dense(), A @ x, rtol=1e-12)

    @MACHINES
    def test_csc_spmm_matches_dense_reference(self, machine):
        A, rng = _matrix()
        C = rng.random((A.shape[1], 3))
        with repro.session(machine=machine) as s:
            Y = repro.einsum("ij,jk->ik", s.tensor("B", A, repro.CSC), C, session=s)
            np.testing.assert_allclose(Y.to_dense(), A @ C, rtol=1e-12)


class TestDtypes:
    def test_float32_spmv_rows_rounds_the_float64_row_sum(self):
        # A float32 output takes the bincount body: each row sums its
        # products in float64, in position order, then rounds once.
        A, rng = _matrix()
        x = rng.random(A.shape[1])
        a = Tensor.zeros("a", (A.shape[0],), dtype=np.float32)
        i, j = index_vars("i j")
        a[i] = Tensor.from_scipy("B", A, CSR)[i, j] * Tensor.from_dense("c", x)[j]
        machine = Machine.cpu(PIECES)
        ck = compile_kernel(auto_schedule(a, machine, strategy="rows"), machine)
        ck.execute(Runtime(machine))
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        expected = np.bincount(rows, weights=A.data * x[A.indices],
                               minlength=A.shape[0]).astype(np.float32)
        np.testing.assert_array_equal(a.to_dense(), expected)
        np.testing.assert_allclose(a.to_dense(), A @ x, rtol=1e-6)

    def test_float32_spmm_output_matches_dense_reference(self):
        A, rng = _matrix()
        C = rng.random((A.shape[1], 3))
        out = Tensor.zeros("A", (A.shape[0], 3), dtype=np.float32)
        i, j, k = index_vars("i j k")
        out[i, k] = Tensor.from_scipy("B", A, CSR)[i, j] * Tensor.from_dense("C", C)[j, k]
        machine = Machine.cpu(PIECES)
        ck = compile_kernel(auto_schedule(out, machine, strategy="rows"), machine)
        ck.execute(Runtime(machine))
        np.testing.assert_allclose(out.to_dense(), A @ C, rtol=1e-6)


class TestBinding:
    def test_caches_disabled_still_runs_the_specialized_leaf(self):
        A, x, a, sched = spmv_workload()
        machine = Machine.cpu(PIECES)
        with _cache.caches_disabled():
            ck = compile_kernel(sched, machine)
            ck.execute(Runtime(machine))
        assert ck.kind == "spmv"
        np.testing.assert_allclose(a.to_dense(), A @ x, rtol=1e-12)

    def test_leaf_for_returns_a_per_piece_leaf(self):
        A, x, a, sched = spmv_workload(seed=21)
        ck = compile_kernel(sched, Machine.cpu(PIECES))
        leaf = codegen.leaf_for(ck)
        works = [leaf(p) for p in ck.pieces]
        assert all(isinstance(w, Work) for w in works)
        assert sum(w.flops for w in works) == 2.0 * A.nnz
        np.testing.assert_allclose(a.to_dense(), A @ x, rtol=1e-12)
