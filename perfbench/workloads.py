"""The benchmark's three closed-loop workloads.

Each workload builds its raw operands from the seed alone (NumPy arrays
and SciPy matrices — the program only ever sees these), then exposes:

* ``setup()``   — timed as ``setup_s``: session creation, packing, compile
  and the first launch, up to the first result;
* ``prepare(i)`` — untimed work before call ``i`` (next iterate, fresh
  operands);
* ``call(i)``   — timed: raw operands to result, through the public API;
* ``check(i)``  — untimed: compares the outputs of call ``i`` (or of the
  set-up, for ``i < 0``) with a same-process SciPy/NumPy reference and
  returns ``(ok, reference_seconds, execution_results)``.

``period`` is the length of the workload's call rotation: runs end on a
whole period so every count and ratio repeats exactly.  ``traced(i)``
says which calls of a traced run carry spans; the others time the same
rotation untraced, for the tracing overhead.
"""
from __future__ import annotations

import time
from typing import Tuple

import numpy as np
import scipy.sparse as sp

import repro
from repro.data.matrices import rmat
from repro.data.tensors import frostt_like

_clock = time.perf_counter

#: Elementwise tolerance every output is held to:
#: ``|out - ref| <= ATOL + RTOL * |ref|`` (float64; the program and the
#: reference sum in different orders).
RTOL, ATOL = 1e-9, 1e-12


def close(out, ref) -> bool:
    return out.shape == ref.shape and bool(np.allclose(out, ref, rtol=RTOL, atol=ATOL))


def fixed_degree_csr(rng, n: int, degree: int) -> sp.csr_matrix:
    """An ``n`` x ``n`` CSR matrix with exactly ``degree`` non-zeros per row
    at uniform-random distinct columns.  Every row holds the same number
    of non-zeros, so a row split gives every piece the same work at any
    seed."""
    cols = np.sort(rng.integers(0, n, (n, degree)), axis=1)
    while True:
        dup = np.zeros(cols.shape, dtype=bool)
        dup[:, 1:] = cols[:, 1:] == cols[:, :-1]
        if not dup.any():
            break
        cols[dup] = rng.integers(0, n, int(dup.sum()))
        cols.sort(axis=1)
    indptr = np.arange(0, n * degree + 1, degree, dtype=np.int64)
    vals = rng.random(n * degree) + 0.1
    return sp.csr_matrix((vals, cols.ravel(), indptr), shape=(n, n))


class Workload:
    name = ""
    #: calls per rotation block; traced runs trace every other block
    block = 1
    period = 4
    setup_repeats = 3
    #: untimed calls after set-up, for one-off work of a session's first
    #: calls (a whole number of periods)
    warmup = 0
    #: calls one session serves before the loop sets up a new one (a
    #: whole number of periods); None keeps one session for the run
    session_calls = None
    #: attributes holding the session or its tensors (cleared by teardown)
    _session_state: Tuple[str, ...] = ("s",)

    def __init__(self, seed: int):
        self.seed = seed
        self.s = None

    def sizes(self) -> dict:
        raise NotImplementedError

    def traced(self, i: int) -> bool:
        """Trace every other block, in the order untraced-traced then
        traced-untraced, so neither side always runs later (``period`` is
        a multiple of ``4 * block``)."""
        b = i // self.block
        return (b + b // 2) % 2 == 1

    def teardown(self) -> None:
        """Drop every reference to the session and packed tensors."""
        self.__dict__.update({k: None for k in self._session_state})


class SpmvPower(Workload):
    """Power iteration ``a = B c`` on a 1M x 1M uniform-random CSR matrix
    (10 non-zeros per row, 10M in all) on ``repro.session(nodes=4)``.

    ``B`` is packed once; each call multiplies by the current iterate and
    ``prepare`` writes the normalized product back into ``c`` in place.
    """

    name = "spmv-power"
    N, DEGREE = 1_000_000, 10
    _session_state = ("s", "B", "c", "a")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 0])
        self.A = fixed_degree_csr(rng, self.N, self.DEGREE)
        self.x0 = rng.random(self.N)

    def sizes(self) -> dict:
        return {"n": self.N, "nnz": int(self.A.nnz), "nodes": 4}

    def setup(self) -> None:
        self.s = repro.session(nodes=4)
        self.B = self.s.tensor("B", self.A, repro.CSR)
        self.c = self.s.tensor("c", self.x0)
        self.a = repro.einsum("ij,j->i", self.B, self.c, session=self.s)

    def prepare(self, i: int) -> None:
        out = self.a.vals.data
        self.c.vals.data[...] = out / np.linalg.norm(out)

    def call(self, i: int) -> None:
        self.a = repro.einsum("ij,j->i", self.B, self.c, session=self.s)

    def check(self, i: int):
        t0 = _clock()
        ref = self.A @ self.c.vals.data
        ref_s = _clock() - t0
        return close(self.a.vals.data, ref), ref_s, [self.s.last_result]


class MlStep(Workload):
    """One sparse-ML step on ``repro.session(gpus=4)``: the fused
    SDDMM -> SpMM program over an R-MAT graph, then an MTTKRP einsum over
    a FROSTT-like CSF3 tensor.  Factor values change in place between
    steps."""

    name = "ml-step"
    setup_repeats = 9
    #: The MTTKRP kernel's first placement moves the runtime's home state
    #: after the fused launch recorded its mapping trace, so the second
    #: step records that trace once more; keep it out of the timed loop.
    warmup = 4
    SCALE, EDGE_FACTOR, RANK = 14, 10, 16
    TENSOR_SHAPE, TENSOR_NNZ = (800, 600, 400), 260_000
    _session_state = ("s", "p", "T", "tensors", "H", "A_out", "result")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.G = rmat(self.SCALE, self.EDGE_FACTOR, seed=seed)
        self.coords, self.vals, self.shape = frostt_like(
            self.TENSOR_SHAPE, self.TENSOR_NNZ, seed=seed
        )
        n, r = self.G.shape[0], self.RANK
        self.factors = {
            "U": (n, r), "V": (r, n), "F": (n, r),
            "C": (self.shape[1], r), "D": (self.shape[2], r),
        }
        self.values = self._factor_values(-1)
        # Reference operators that depend only on the structure.
        self.g_rows = np.repeat(np.arange(n), np.diff(self.G.indptr))
        nnz = self.vals.size
        self.t_rows = sp.csr_matrix(
            (np.ones(nnz), (self.coords[0], np.arange(nnz))),
            shape=(self.shape[0], nnz),
        )

    def _factor_values(self, step: int) -> dict:
        rng = np.random.default_rng([self.seed, 1, step + 1])
        return {k: rng.random(shape) for k, shape in self.factors.items()}

    def sizes(self) -> dict:
        return {
            "graph_n": self.G.shape[0], "graph_nnz": int(self.G.nnz),
            "rank": self.RANK, "tensor_shape": list(self.shape),
            "tensor_nnz": int(self.vals.size), "gpus": 4,
        }

    def setup(self) -> None:
        s = self.s = repro.session(gpus=4)
        n = self.G.shape[0]
        B = s.tensor("G", self.G, repro.CSR)
        self.tensors = {k: s.tensor(k, v) for k, v in self.values.items()}
        U, V, F = (self.tensors[k] for k in "UVF")
        E = s.zeros("E", self.G.shape, repro.CSR)
        self.H = s.zeros("H", (n, self.RANK))
        i, j, k, i2, j2, k2 = repro.index_vars("i j k i2 j2 k2")
        with s.program() as self.p:
            E[i, j] = B[i, j] * U[i, k] * V[k, j]
            self.H[i2, k2] = E[i2, j2] * F[j2, k2]
        self.T = s.from_coo("T", self.coords, self.vals, self.shape, repro.CSF3)
        self.call(-1)

    def prepare(self, i: int) -> None:
        self.values = self._factor_values(i)
        for k, v in self.values.items():
            self.tensors[k].dense_array()[...] = v

    def call(self, i: int) -> None:
        self.result = self.p.run()
        self.A_out = repro.einsum(
            "ijk,jr,kr->ir", self.T, self.tensors["C"], self.tensors["D"],
            session=self.s, name="A",
        )

    def check(self, i: int):
        v = self.values
        t0 = _clock()
        G = self.G
        ev = G.data * np.einsum("nr,nr->n", v["U"][self.g_rows], v["V"].T[G.indices])
        h_ref = sp.csr_matrix((ev, G.indices, G.indptr), shape=G.shape) @ v["F"]
        kr = v["C"][self.coords[1]] * v["D"][self.coords[2]] * self.vals[:, None]
        a_ref = self.t_rows @ kr
        ref_s = _clock() - t0
        ok = close(self.H.dense_array(), h_ref) and close(self.A_out.dense_array(), a_ref)
        return ok, ref_s, list(self.result.results) + [self.s.last_result]


class ChurnSmall(Workload):
    """A long-lived ``repro.session(nodes=4)`` serving small calls
    (2000 x 2000, 10 non-zeros per row) that rotate SpMV, SpMM and SDDMM
    with a sparse ``out=``.  Calls come in rounds of three (one per kind);
    two rounds of every three bring never-seen sparsity patterns (fresh
    pack, kernel-cache miss, cold compile and placement), the third
    repeats requests on one of four hot patterns packed at set-up.  With
    two thirds of the calls fresh, the median call is a fresh one."""

    name = "churn-small"
    N, DEGREE, RANK, HOT = 2000, 10, 8, 4
    #: kinds rotate every call, fresh/hot every 3 calls; a block of 9
    #: calls holds one hot and two fresh rounds, the hot pattern changes
    #: every 2 blocks, so the whole rotation repeats every 72 calls.
    block = 9
    period = 72
    #: Every session serves the same 72 calls, so each run measures the
    #: same session ages however many calls the host completes.
    session_calls = 72
    setup_repeats = 9
    SPECS = ("ij,j->i", "ij,jk->ik", "ij,ik,kj->ij")
    _session_state = ("s", "hot_B", "hot_E", "warm", "out")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 2])
        self.hot = [self._operands(rng) for _ in range(self.HOT)]

    def _operands(self, rng) -> dict:
        n, r = self.N, self.RANK
        return {
            "A": fixed_degree_csr(rng, n, self.DEGREE), "x": rng.random(n),
            "X": rng.random((n, r)), "U": rng.random((n, r)),
            "V": rng.random((r, n)),
        }

    def sizes(self) -> dict:
        return {"n": self.N, "nnz_per_matrix": self.N * self.DEGREE,
                "rank": self.RANK, "hot_patterns": self.HOT, "nodes": 4}

    @staticmethod
    def kind(i: int) -> int:
        return i % 3

    @staticmethod
    def fresh(i: int) -> bool:
        return (i // 3) % 3 != 0

    def hot_pattern(self, i: int) -> int:
        return (i // (2 * self.block)) % self.HOT

    def setup(self) -> None:
        s = self.s = repro.session(nodes=4)
        n = self.N
        self.hot_B = [s.tensor(f"H{h}", ops["A"], repro.CSR) for h, ops in enumerate(self.hot)]
        self.hot_E = [s.zeros(f"E{h}", (n, n), repro.CSR) for h in range(self.HOT)]
        self.warm = []
        for h in range(self.HOT):
            for kind in range(3):
                self._run(kind, self.hot[h], self.hot_B[h], self.hot_E[h])
                self.warm.append((kind, h, self.out, self.s.last_result))

    def prepare(self, i: int) -> None:
        if self.fresh(i):
            self.ops = self._operands(np.random.default_rng([self.seed, 3, i]))
        else:
            self.ops = self.hot[self.hot_pattern(i)]

    def call(self, i: int) -> None:
        s, n = self.s, self.N
        if self.fresh(i):
            B = s.tensor("B", self.ops["A"], repro.CSR)
            E = s.zeros("E", (n, n), repro.CSR) if self.kind(i) == 2 else None
        else:
            h = self.hot_pattern(i)
            B, E = self.hot_B[h], self.hot_E[h]
        self._run(self.kind(i), self.ops, B, E)

    def _run(self, kind: int, ops: dict, B, E) -> None:
        spec, s = self.SPECS[kind], self.s
        if kind == 0:
            self.out = repro.einsum(spec, B, ops["x"], session=s)
        elif kind == 1:
            self.out = repro.einsum(spec, B, ops["X"], session=s)
        else:
            self.out = repro.einsum(spec, B, ops["U"], ops["V"], session=s, out=E)

    def _reference(self, kind: int, ops: dict):
        A = ops["A"]
        if kind == 0:
            return A @ ops["x"]
        if kind == 1:
            return A @ ops["X"]
        rows = np.repeat(np.arange(self.N), np.diff(A.indptr))
        sampled = A.data * np.einsum("nr,rn->n", ops["U"][rows], ops["V"][:, A.indices])
        return sp.csr_matrix((sampled, A.indices, A.indptr), shape=A.shape)

    def _matches(self, kind: int, out, ref) -> bool:
        if kind < 2:
            return close(out.dense_array(), ref)
        got = out.to_scipy()
        return (
            got.shape == ref.shape
            and np.array_equal(got.indptr, ref.indptr)
            and np.array_equal(got.indices, ref.indices)
            and close(got.data, ref.data)
        )

    def check(self, i: int):
        if i < 0:  # set-up: every hot pattern x kind once
            ok, ref_s = True, 0.0
            for kind, h, out, _res in self.warm:
                t0 = _clock()
                ref = self._reference(kind, self.hot[h])
                ref_s += _clock() - t0
                ok = ok and self._matches(kind, out, ref)
            return ok, ref_s, [res for *_x, res in self.warm]
        kind = self.kind(i)
        t0 = _clock()
        ref = self._reference(kind, self.ops)
        ref_s = _clock() - t0
        return self._matches(kind, self.out, ref), ref_s, [self.s.last_result]


WORKLOADS = {w.name: w for w in (SpmvPower, MlStep, ChurnSmall)}
