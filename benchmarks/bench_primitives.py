"""Microbenchmarks of the substrate primitives (real wall-clock).

Unlike the figure benchmarks (one-shot experiment drivers), these measure
the actual Python/NumPy performance of the hot primitives: tensor packing,
dependent partitioning, leaf kernels, and the generic engine.  Each leaf
is bound once over one whole-matrix piece; the benchmark times its thunk,
the per-call cost a steady-state execution pays.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.kernels import (
    bind_sddmm_nonzeros,
    bind_spmm_rows,
    bind_spmv_nonzeros,
    bind_spmv_rows,
)
from repro.legion import equal_partition, image, preimage
from repro.taco import CSR, Tensor

rng = np.random.default_rng(31)
N, DENS = 3000, 0.01


@pytest.fixture(scope="module")
def packed():
    M = sp.random(N, N, density=DENS, random_state=rng, format="csr")
    B = Tensor.from_scipy("B", M, CSR)
    return M, B


@pytest.mark.benchmark(group="primitives")
def test_pack_csr(benchmark):
    M = sp.random(N, N, density=DENS, random_state=rng, format="coo")
    rows, cols, vals = M.row.astype(np.int64), M.col.astype(np.int64), M.data
    benchmark(lambda: Tensor.from_coo("B", [rows, cols], vals, (N, N), CSR))


@pytest.mark.benchmark(group="primitives")
def test_image_then_preimage(benchmark, packed):
    _, B = packed
    lvl = B.levels[1]
    part = equal_partition(lvl.pos.ispace, 16)

    def run():
        crd_part = image(lvl.pos, part, lvl.crd)
        return preimage(lvl.pos, crd_part, lvl.crd)

    benchmark(run)


@pytest.mark.benchmark(group="primitives")
def test_spmv_rows_leaf(benchmark, packed):
    M, B = packed
    pos, crd, vals = B.csr_arrays()
    x = rng.random(N)
    out = np.zeros(N)
    benchmark(bind_spmv_rows(pos, crd, vals, x, out, [(0, 0, N - 1)])[0])
    assert np.allclose(out, M @ x)


@pytest.mark.benchmark(group="primitives")
def test_spmv_nonzeros_leaf(benchmark, packed):
    M, B = packed
    pos, crd, vals = B.csr_arrays()
    x = rng.random(N)
    out = np.zeros(N)
    leaf = bind_spmv_nonzeros(pos, crd, vals, x, out, [(0, 0, M.nnz - 1)])[0]

    def run():
        out[:] = 0
        leaf()

    benchmark(run)
    assert np.allclose(out, M @ x)


@pytest.mark.benchmark(group="primitives")
def test_spmm_rows_leaf(benchmark, packed):
    M, B = packed
    pos, crd, vals = B.csr_arrays()
    C = rng.random((N, 32))
    out = np.zeros((N, 32))
    benchmark(bind_spmm_rows(pos, crd, vals, C, out, [(0, 0, N - 1, None)])[0])


@pytest.mark.benchmark(group="primitives")
def test_sddmm_leaf(benchmark, packed):
    M, B = packed
    pos, crd, vals = B.csr_arrays()
    C = rng.random((N, 32))
    D = rng.random((32, N))
    ov = np.zeros(M.nnz)
    benchmark(bind_sddmm_nonzeros(pos, crd, vals, C, D, ov, [(0, 0, M.nnz - 1)])[0])


@pytest.mark.benchmark(group="primitives")
def test_compile_spmv(benchmark, packed):
    """Compilation cost: partitioning a tensor's full coordinate tree."""
    from repro.core import compile_kernel
    from repro.legion import Machine
    from repro.taco import index_vars

    M, _ = packed

    def build_and_compile():
        B = Tensor.from_scipy("B", M, CSR)
        c = Tensor.from_dense("c", np.ones(N))
        a = Tensor.zeros("a", (N,))
        i, j, io, ii = index_vars("i j io ii")
        a[i] = B[i, j] * c[j]
        s = a.schedule().divide(i, io, ii, 16).distribute(io)
        return compile_kernel(s, Machine.cpu(16))

    benchmark(build_and_compile)
