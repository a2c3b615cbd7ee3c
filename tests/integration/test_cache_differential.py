"""Cached-vs-uncached differential oracle: exact values, exact metrics.

Every specialized kernel runs one leaf implementation (``repro.codegen.
leaf_for``) whether or not the compilation caches are enabled; what the
caches change is only *how* a kernel is reached — memoized partitions,
fingerprinted kernel lookups, recorded mapping traces — never *what* the
distributed schedule computes.  That reduces to two checkable properties
per kernel × format × strategy × machine kind:

* the cached run's output matches the dense reference
  (:mod:`repro.taco.reference`) with **exact float64 equality** (all
  generated values are small integers), and the uncached run's output is
  bit-identical to it;
* the simulated Legion metrics — per-step task counts, per-processor
  compute seconds and every communication event — are **bit-identical**
  between the two runs.

Workloads are rebuilt from the same seed per run (fresh tensors, same
values) so neither run can warm the other's caches.  A fixed-seed smoke
slice runs unmarked in the fast tier-1 loop; the full sweep carries the
``differential`` and ``slow`` markers (``pytest -m differential``).
"""
import numpy as np
import pytest

from repro.api.autoschedule import auto_schedule
from repro.core import caches_disabled, clear_caches, compile_kernel
from repro.legion import Machine, Runtime
from repro.taco.reference import evaluate
from test_differential import (
    _EMPTY_ROWS, _KIND_FORMATS, _STRATEGIES, _build,
)

PIECES = 4

#: kernel classes with a specialized leaf (spadd3 runs the two-phase
#: assembly pipeline, CSC operands the generic engine).
_LEAF_KINDS = ("spmv", "spmm", "sddmm", "spttv", "spmttkrp")
_LEAF_FORMATS = ("csr", "csf3", "ddc")


def _metrics_signature(rt: Runtime):
    """An exact, comparable rendering of every recorded step metric."""
    sig = []
    for step in rt.metrics.steps:
        sig.append((
            step.name,
            step.tasks_launched,
            tuple(sorted(step.compute_seconds.items())),
            tuple((e.src_proc, e.dst_proc, e.nbytes, e.same_node, e.reason)
                  for e in step.comm_events),
        ))
    return tuple(sig)


def _run(kind, fmt, strategy, machine_kind, seed, n, density, empty_rows):
    clear_caches()
    rng = np.random.default_rng(seed)
    out = _build(kind, fmt, rng, n, density, empty_rows)
    expected = evaluate(out.assignment)
    machine = (
        Machine.gpu(PIECES) if machine_kind == "gpu" else Machine.cpu(PIECES)
    )
    sched = auto_schedule(out, machine, strategy=strategy)
    ck = compile_kernel(sched, machine)
    assert ck.kind != "generic", (
        f"{kind}/{fmt}/{strategy}: classified generic — no specialized "
        f"leaf ran, the comparison would be vacuous"
    )
    rt = Runtime(machine)
    ck.execute(rt)
    return out.to_dense(), expected, _metrics_signature(rt)


def _check(kind, fmt, strategy, machine_kind, seed, n=24, density=0.2,
           empty_rows=None):
    label = (f"{kind}/{fmt}/{strategy}/{machine_kind} seed={seed} n={n} "
             f"density={density} empty_rows={empty_rows}")
    got, expected, sig = _run(kind, fmt, strategy, machine_kind, seed, n,
                              density, empty_rows)
    with caches_disabled():
        ref, _, ref_sig = _run(kind, fmt, strategy, machine_kind, seed, n,
                               density, empty_rows)
    for name, other in (("dense reference", expected), ("uncached run", ref)):
        if not np.array_equal(got, other):
            bad = np.argwhere(got != other)
            head = [
                (tuple(int(x) for x in idx),
                 float(got[tuple(idx)]), float(other[tuple(idx)]))
                for idx in bad[:5]
            ]
            raise AssertionError(
                f"{label}: {len(bad)} entries differ from the {name}; first "
                f"(index, cached, {name}): {head}"
            )
    assert sig == ref_sig, (
        f"{label}: simulated metrics drifted between cached and uncached runs"
    )


@pytest.fixture(autouse=True)
def _fresh():
    clear_caches()
    yield
    clear_caches()


def _combos():
    for kind in _LEAF_KINDS:
        for fmt in _KIND_FORMATS[kind]:
            if fmt not in _LEAF_FORMATS:
                continue
            for strategy in _STRATEGIES[kind]:
                yield kind, fmt, strategy


def _case_id(c):
    return "-".join(str(x) for x in c)


# --------------------------------------------------------------------------- #
# tier-1 slice: one fixed seed, CPU machine, every specialized combination
# --------------------------------------------------------------------------- #
SMOKE_CASES = [(k, f, s, "cpu", 4321) for k, f, s in _combos()]


@pytest.mark.parametrize("case", SMOKE_CASES, ids=_case_id)
def test_cached_vs_uncached_smoke(case):
    kind, fmt, strategy, machine_kind, seed = case
    _check(kind, fmt, strategy, machine_kind, seed)


# --------------------------------------------------------------------------- #
# pieces with rows but no non-zeros (R-MAT graphs, empty leading rows)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("rows", sorted(_EMPTY_ROWS))
@pytest.mark.parametrize("kind,strategy", [
    ("spmv", "rows"), ("spmv", "nonzeros"),
    ("spmm", "rows"), ("spmm", "grid"), ("spmm", "nonzeros"),
])
def test_cached_vs_uncached_pieces_without_nonzeros(kind, strategy, rows):
    _check(kind, "csr", strategy, "gpu", 4321, empty_rows=rows)


# --------------------------------------------------------------------------- #
# the full sweep: seeds x densities x machine kinds (markers: differential, slow)
# --------------------------------------------------------------------------- #
SWEEP_SEEDS = (13, 202)
SWEEP_DENSITIES = (0.05, 0.35)
SWEEP_SIZES = (17, 24)  # odd size exercises uneven piece boundaries

SWEEP_CASES = [
    (k, f, s, mk, seed, n, d)
    for k, f, s in _combos()
    for mk in ("cpu", "gpu")
    for seed, n in zip(SWEEP_SEEDS, SWEEP_SIZES)
    for d in SWEEP_DENSITIES
]


@pytest.mark.differential
@pytest.mark.slow
@pytest.mark.parametrize("case", SWEEP_CASES, ids=_case_id)
def test_cached_vs_uncached_sweep(case):
    kind, fmt, strategy, machine_kind, seed, n, density = case
    _check(kind, fmt, strategy, machine_kind, seed, n=n, density=density)
