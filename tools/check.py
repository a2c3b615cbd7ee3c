#!/usr/bin/env python
"""Unified static-check runner: every repo invariant, one entry point.

The repo grew its invariants one ad-hoc script at a time — lock
discipline (``lock_check.py``), docstring coverage (``docs_check.py``),
the exported API surface and runnable examples (``api_check.py``).  This
runner turns each into a *plugin* sharing one AST/source cache and one
findings model, and adds two codebase passes of its own:

* **nondet** — a nondeterminism lint over the deterministic layers
  (``src/repro/kernels``, ``src/repro/codegen.py``, ``src/repro/analysis``,
  ``src/repro/distal``, ``src/repro/bench``): unseeded
  ``np.random`` / ``random`` usage and wall-clock reads
  (``time.time``/``perf_counter``, ``datetime.now``) are flagged with
  exact lines, because the leaf kernels, their dispatch and the static
  analyzers must be reproducible functions of their inputs.  An
  intentional read (the bench harness timing its own host overhead)
  carries an inline waiver ``# nondet: ok <reason>`` on the flagged
  line — a waiver without a reason is itself a finding;
* **commplan** — every schedule the auto-scheduler can synthesize
  (kernel × format × strategy × machine kind) must yield a coherent
  static communication plan (:mod:`repro.analysis.commplan`): the plan
  derives without error and reports no privilege-incoherent
  distribution and no missing-``communicate`` duplicate transfers.

Every finding is ``file:line: message``; plugins report a one-line
summary when clean.  Usage::

    PYTHONPATH=src python tools/check.py             # fast default set
    PYTHONPATH=src python tools/check.py --all       # + slow plugins
    PYTHONPATH=src python tools/check.py --list
    PYTHONPATH=src python tools/check.py --only lock,nondet
    PYTHONPATH=src python tools/check.py --json

``tests/tools/test_check_runner.py`` wires the fast set into tier-1.
The legacy scripts keep working standalone; they are thin shells over
the same functions this runner imports.
"""
from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
SRC = REPO / "src"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

JSON_SCHEMA_VERSION = 2

__all__ = [
    "Finding", "CheckResult", "Plugin", "PLUGINS", "SourceCache",
    "run_checks", "main",
]


# --------------------------------------------------------------------- #
# findings model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Finding:
    """One exact-line problem reported by a plugin."""

    file: str  #: repo-relative path ("-" for repo-level findings)
    line: Optional[int]
    message: str

    def __str__(self) -> str:
        at = f":{self.line}" if self.line is not None else ""
        return f"{self.file}{at}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {"file": self.file, "line": self.line, "message": self.message}


@dataclass
class CheckResult:
    """The outcome of one plugin run."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    summary: str = ""

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "summary": self.summary,
            "findings": [f.to_json() for f in self.findings],
        }


class SourceCache:
    """Parse each checked file once, share text + AST across plugins."""

    def __init__(self, repo: Path = REPO):
        self.repo = repo
        self._cache: Dict[str, Tuple[str, ast.Module]] = {}

    def get(self, relpath: str) -> Tuple[str, ast.Module]:
        if relpath not in self._cache:
            text = (self.repo / relpath).read_text()
            self._cache[relpath] = (text, ast.parse(text, filename=relpath))
        return self._cache[relpath]


@dataclass(frozen=True)
class Plugin:
    """One registered check: a name, a blurb, and a runner."""

    name: str
    description: str
    run: Callable[[SourceCache], CheckResult]
    slow: bool = False  #: excluded from the default set (subprocesses etc.)


# --------------------------------------------------------------------- #
# wrapped legacy checks
# --------------------------------------------------------------------- #
def _run_lock(cache: SourceCache) -> CheckResult:
    import lock_check

    findings = []
    for relpath, rules in lock_check.WATCH.items():
        text, tree = cache.get(relpath)
        checker = lock_check._Checker(rules, relpath)
        checker.visit(tree)
        for v in checker.violations:
            findings.append(Finding(
                v.file, v.line,
                f"{v.context} mutates {v.target} outside "
                f"`with {v.lock}:`",
            ))
    watched = sum(
        len(r.targets) for rules in lock_check.WATCH.values() for r in rules
    )
    return CheckResult(
        "lock", findings,
        f"{watched} watched targets across {len(lock_check.WATCH)} files, "
        "every mutation under its designated lock",
    )


def _run_docs(cache: SourceCache) -> CheckResult:
    import docs_check

    offenders = docs_check.check(docs_check.DEFAULT_ROOT, min_words=3)
    findings = [
        Finding(str(path.relative_to(REPO)), 1, why)
        for path, why in offenders
    ]
    n = sum(
        1 for p in docs_check.DEFAULT_ROOT.rglob("*.py")
        if docs_check.is_public(p, docs_check.DEFAULT_ROOT)
    )
    return CheckResult("docs", findings, f"{n} public modules documented")


def _run_exports(cache: SourceCache) -> CheckResult:
    import api_check

    findings = [
        Finding("src/repro/__init__.py", None, p)
        for p in api_check.export_problems()
    ]
    return CheckResult(
        "exports", findings,
        f"{len(api_check.REQUIRED_EXPORTS)} required exports resolve and "
        "are documented",
    )


def _run_examples(cache: SourceCache) -> CheckResult:
    import api_check

    findings = [
        Finding(f"examples/{name}", None, detail)
        for name, detail in api_check.example_failures()
    ]
    n = len(list(api_check.EXAMPLES.glob("*.py")))
    return CheckResult(
        "examples", findings, f"{n} examples ran clean under PYTHONPATH=src"
    )


# --------------------------------------------------------------------- #
# nondeterminism lint (new)
# --------------------------------------------------------------------- #
#: directories (and modules) whose code must be a pure function of its inputs.
NONDET_ROOTS = (
    "src/repro/kernels", "src/repro/codegen.py",
    "src/repro/analysis", "src/repro/distal", "src/repro/bench",
)

#: inline waiver for an intentional nondeterministic read: the flagged
#: line carries ``# nondet: ok <reason>``; the reason is mandatory.
_WAIVER_RE = re.compile(r"#\s*nondet:\s*ok\b[ \t]*(.*)")

#: attribute chains whose *call* (or use) injects nondeterminism.
_WALLCLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _waivers(text: str) -> Dict[int, str]:
    """Line number → waiver reason ("" when the reason is missing)."""
    out: Dict[int, str] = {}
    for n, line in enumerate(text.splitlines(), 1):
        m = _WAIVER_RE.search(line)
        if m is not None:
            out[n] = m.group(1).strip()
    return out


def _scan_nondet(relpath: str, text: str, tree: ast.Module) -> List[Finding]:
    waived = _waivers(text)
    findings = []

    def report(line: int, message: str) -> None:
        if line in waived:
            if not waived[line]:
                findings.append(Finding(
                    relpath, line,
                    "nondet waiver without a reason: write "
                    "`# nondet: ok <why this read is intentional>`",
                ))
            return  # intentionally waived
        findings.append(Finding(relpath, line, message))

    # only flag maximal attribute chains, so np.random.random(...) yields
    # one finding rather than one per nested Attribute node
    inner = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            dotted = _dotted(node)
            if dotted is None:
                continue
            # unseeded randomness: module-level np.random.* / stdlib
            # random.* references that are not the construction of an
            # explicitly seeded Generator.  Method calls on a Generator
            # instance (``rng.random(...)``) are the seeded fix, not a
            # finding.
            if (dotted[0] in ("np", "numpy") and "random" in dotted[1:]) \
                    or dotted[0] == "random":
                if dotted[-1] in ("default_rng", "Generator", "SeedSequence"):
                    continue  # seeded-generator construction is the fix
                report(
                    node.lineno,
                    f"unseeded randomness: {'.'.join(dotted)} — these layers "
                    "must be deterministic (pass a seeded "
                    "np.random.Generator instead)",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            # scipy.sparse.random without an explicit random_state draws
            # from the global NumPy state.
            if (dotted[-1] == "random"
                    and dotted[0] in ("sp", "sparse", "scipy")
                    and not any(kw.arg == "random_state"
                                for kw in node.keywords)):
                report(
                    node.lineno,
                    f"unseeded randomness: {'.'.join(dotted)}() without "
                    "random_state= — pass the scenario's seeded Generator",
                )
            if tuple(dotted[-2:]) in _WALLCLOCK_CALLS:
                report(
                    node.lineno,
                    f"wall-clock read: {'.'.join(dotted)}() — deterministic "
                    "layers must not depend on the clock "
                    "(`# nondet: ok <reason>` waives an intentional read)",
                )
    return findings


def _run_nondet(cache: SourceCache) -> CheckResult:
    findings: List[Finding] = []
    scanned = 0
    for root in NONDET_ROOTS:
        top = REPO / root
        for path in [top] if top.is_file() else sorted(top.rglob("*.py")):
            relpath = str(path.relative_to(REPO))
            text, tree = cache.get(relpath)
            findings.extend(_scan_nondet(relpath, text, tree))
            scanned += 1
    return CheckResult(
        "nondet", findings,
        f"{scanned} modules under {', '.join(NONDET_ROOTS)} free of "
        "unseeded randomness and unwaived wall-clock reads",
    )


# --------------------------------------------------------------------- #
# static communication-plan coherence (new)
# --------------------------------------------------------------------- #
#: auto-scheduler space: which formats and strategies each kind admits.
_COMMPLAN_KIND_FORMATS = {
    "spmv": ("csr",),
    "spmm": ("csr",),
    "sddmm": ("csr",),
    "spttv": ("csf3", "ddc"),
    "spmttkrp": ("csf3", "ddc"),
    "spadd3": ("csr",),
}
_COMMPLAN_STRATEGIES = {
    "spmv": ("rows", "nonzeros"),
    "spmm": ("rows", "nonzeros", "grid"),
    "sddmm": ("rows", "nonzeros"),
    "spttv": ("rows", "nonzeros"),
    "spmttkrp": ("rows", "nonzeros"),
    "spadd3": ("rows",),
}


def _commplan_workload(kind: str, fmt: str, n: int = 18, density: float = 0.25):
    """A small seeded statement of one kind (output tensor with its
    assignment attached), mirroring the differential oracle's builders."""
    import numpy as np
    import scipy.sparse as sp

    from repro.taco import CSF3, CSR, DDC, Tensor, index_vars

    rng = np.random.default_rng(0)
    fmt_obj = {"csr": CSR, "csf3": CSF3, "ddc": DDC}[fmt]
    vals = lambda size: rng.integers(1, 5, size).astype(float)
    dense = lambda shape: rng.integers(1, 5, shape).astype(float)

    def csr(rows, cols):
        nnz = max(1, int(rows * cols * density))
        mat = sp.coo_matrix(
            (vals(nnz), (rng.integers(0, rows, nnz), rng.integers(0, cols, nnz))),
            shape=(rows, cols),
        )
        mat.sum_duplicates()
        return mat.tocsr()

    if kind == "spmv":
        B = Tensor.from_scipy("B", csr(n, n), CSR)
        c = Tensor.from_dense("c", dense((n,)))
        a = Tensor.zeros("a", (n,))
        i, j = index_vars("i j")
        a[i] = B[i, j] * c[j]
        return a
    if kind == "spmm":
        B = Tensor.from_scipy("B", csr(n, n), CSR)
        C = Tensor.from_dense("C", dense((n, 5)))
        out = Tensor.zeros("A", (n, 5))
        i, kk, j = index_vars("i k j")
        out[i, j] = B[i, kk] * C[kk, j]
        return out
    if kind == "sddmm":
        B = Tensor.from_scipy("B", csr(n, n), CSR)
        C = Tensor.from_dense("C", dense((n, 4)))
        D = Tensor.from_dense("D", dense((4, n)))
        out = Tensor.zeros("A", (n, n), CSR)
        i, j, kk = index_vars("i j k")
        out[i, j] = B[i, j] * C[i, kk] * D[kk, j]
        return out
    if kind in ("spttv", "spmttkrp"):
        shape = (n, max(3, n // 2), max(3, n // 3))
        nnz = max(1, int(shape[0] * shape[1] * shape[2] * density))
        idx = [rng.integers(0, s, nnz) for s in shape]
        T = Tensor.from_coo("T", idx, vals(nnz), shape, fmt_obj)
        if kind == "spttv":
            c = Tensor.from_dense("c", dense((shape[2],)))
            out = Tensor.zeros("A", shape[:2], None if fmt_obj is DDC else CSR)
            i, j, kk = index_vars("i j k")
            out[i, j] = T[i, j, kk] * c[kk]
            return out
        C = Tensor.from_dense("C", dense((shape[1], 4)))
        D = Tensor.from_dense("D", dense((shape[2], 4)))
        out = Tensor.zeros("A", (n, 4))
        i, j, kk, ll = index_vars("i j k l")
        out[i, ll] = T[i, j, kk] * C[j, ll] * D[kk, ll]
        return out
    if kind == "spadd3":
        Bt, Ct, Dt = (Tensor.from_scipy(nm, csr(n, n), CSR) for nm in "BCD")
        out = Tensor.zeros("A", (n, n), CSR)
        i, j = index_vars("i j")
        out[i, j] = Bt[i, j] + Ct[i, j] + Dt[i, j]
        return out
    raise ValueError(kind)


def _run_commplan(cache: SourceCache) -> CheckResult:
    """Every auto-synthesized schedule must yield a coherent static plan.

    For each (kernel × format × strategy × cpu/gpu) the auto-scheduler
    can emit over a small seeded workload, the static communication
    planner must derive a plan without error, and the plan's coherence
    diagnostics must report no error-severity finding (privilege-
    incoherent distribution) and no missing-``communicate`` duplicate
    transfer.  ``RedundantCommunicate`` is advisory — whether a
    placement moves data depends on residency state, so a cold plan
    legitimately reports auto-inserted ``communicate`` placements as
    idle — and is not flagged here.
    """
    import itertools

    from repro.analysis.commplan import commplan_diagnostics, communication_plan
    from repro.api.autoschedule import auto_schedule
    from repro.core import clear_caches
    from repro.errors import MissingCommunicate, ScheduleError
    from repro.legion import Machine

    findings: List[Finding] = []
    checked = 0
    clear_caches()
    try:
        for kind, machine_kind in itertools.product(
            _COMMPLAN_KIND_FORMATS, ("cpu", "gpu")
        ):
            machine = Machine.gpu(4) if machine_kind == "gpu" else Machine.cpu(4)
            for fmt, strategy in itertools.product(
                _COMMPLAN_KIND_FORMATS[kind], _COMMPLAN_STRATEGIES[kind]
            ):
                combo = f"{kind}/{fmt}/{strategy}/{machine_kind}"
                out = _commplan_workload(kind, fmt)
                try:
                    sched = auto_schedule(out, machine, strategy=strategy)
                except ScheduleError:
                    continue  # strategy not synthesizable for this kind
                try:
                    plan = communication_plan(sched, machine)
                    diags = commplan_diagnostics(sched, machine, plan=plan)
                except Exception as e:  # a plan must always derive
                    findings.append(Finding(
                        "src/repro/analysis/commplan.py", None,
                        f"schedule {combo} has no static plan: "
                        f"{type(e).__name__}: {e}",
                    ))
                    continue
                checked += 1
                for d in diags:
                    if d.severity == "error" or d.error_type is MissingCommunicate:
                        findings.append(Finding(
                            "src/repro/analysis/commplan.py", None,
                            f"schedule {combo} is incoherent: {d}",
                        ))
    finally:
        clear_caches()
    return CheckResult(
        "commplan", findings,
        f"{checked} auto-synthesized schedules yield coherent static "
        "communication plans",
    )


# --------------------------------------------------------------------- #
# SDDMM→SpMM fusion coherence (new)
# --------------------------------------------------------------------- #
def _fusable_chain(machine):
    """A seeded SDDMM→SpMM chain as auto-scheduled statements."""
    import numpy as np
    import scipy.sparse as sp

    from repro.api.autoschedule import auto_schedule
    from repro.taco import CSR, Tensor, index_vars

    rng = np.random.default_rng(3)
    n, r, f = 24, 5, 6
    nnz = max(1, int(n * n * 0.2))
    mat = sp.coo_matrix(
        (rng.integers(1, 5, nnz).astype(float),
         (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
        shape=(n, n),
    )
    mat.sum_duplicates()
    B = Tensor.from_scipy("B", mat.tocsr(), CSR)
    U = Tensor.from_dense("U", rng.integers(1, 5, (n, r)).astype(float))
    V = Tensor.from_dense("V", rng.integers(1, 5, (r, n)).astype(float))
    F = Tensor.from_dense("F", rng.integers(1, 5, (n, f)).astype(float))
    E = Tensor.zeros("E", (n, n), CSR)
    H = Tensor.zeros("H", (n, f))
    i, j, k, i2, j2, k2 = index_vars("i j k i2 j2 k2")
    E[i, j] = B[i, j] * U[i, k] * V[k, j]
    H[i2, k2] = E[i2, j2] * F[j2, k2]
    return [
        auto_schedule(E.assignment, machine),
        auto_schedule(H.assignment, machine),
    ]


def _run_fusion(cache: SourceCache) -> CheckResult:
    """Every synthesized fusable chain must fuse into a coherent plan.

    On both machine kinds, the pass pipeline must fuse the seeded
    SDDMM→SpMM chain into one ``fused_sddmm_spmm`` statement, and for
    every buildable strategy the fused statement's static communication
    plan must derive without error and report no privilege-incoherent
    distribution and no missing-``communicate`` duplicate transfers.
    """
    from repro.analysis.commplan import commplan_diagnostics, communication_plan
    from repro.api.autoschedule import auto_schedule
    from repro.core import clear_caches
    from repro.core.passes import FUSED_SDDMM_SPMM, pipeline_plan
    from repro.errors import MissingCommunicate, ScheduleError
    from repro.legion import Machine

    findings: List[Finding] = []
    checked = 0
    clear_caches()
    try:
        for machine_kind in ("cpu", "gpu"):
            machine = Machine.gpu(4) if machine_kind == "gpu" else Machine.cpu(4)
            scheds = _fusable_chain(machine)
            plan = pipeline_plan(scheds, machine)
            fuse_rec = next(r for r in plan.records if r.name == "fuse")
            if not fuse_rec.fired or len(plan.schedules) != 1:
                findings.append(Finding(
                    "src/repro/core/passes.py", None,
                    f"fusable SDDMM→SpMM chain did not fuse on "
                    f"{machine_kind}: {fuse_rec.describe()}",
                ))
                continue
            fused_asg = plan.schedules[0].assignment
            for strategy in ("rows", "nonzeros"):
                combo = f"{FUSED_SDDMM_SPMM}/{strategy}/{machine_kind}"
                try:
                    sched = auto_schedule(fused_asg, machine, strategy=strategy)
                except ScheduleError:
                    continue  # strategy not synthesizable for this machine
                try:
                    cplan = communication_plan(sched, machine)
                    diags = commplan_diagnostics(sched, machine, plan=cplan)
                except Exception as e:  # a plan must always derive
                    findings.append(Finding(
                        "src/repro/analysis/commplan.py", None,
                        f"fused schedule {combo} has no static plan: "
                        f"{type(e).__name__}: {e}",
                    ))
                    continue
                checked += 1
                for d in diags:
                    if d.severity == "error" or d.error_type is MissingCommunicate:
                        findings.append(Finding(
                            "src/repro/analysis/commplan.py", None,
                            f"fused schedule {combo} is incoherent: {d}",
                        ))
    finally:
        clear_caches()
    return CheckResult(
        "fusion", findings,
        f"{checked} fused SDDMM→SpMM schedules derive coherent static "
        "communication plans",
    )


# --------------------------------------------------------------------- #
# registry + CLI
# --------------------------------------------------------------------- #
PLUGINS: List[Plugin] = [
    Plugin("lock", "shared state mutates only under its designated lock",
           _run_lock),
    Plugin("docs", "every public module carries a real docstring",
           _run_docs),
    Plugin("exports", "repro.__all__ matches the documented API surface",
           _run_exports),
    Plugin("nondet", "deterministic layers free of unseeded RNG and "
           "unwaived wall-clock reads", _run_nondet),
    Plugin("commplan", "auto-synthesized schedules yield coherent static "
           "communication plans", _run_commplan),
    Plugin("fusion", "fusable SDDMM→SpMM chains fuse into coherent static "
           "plans", _run_fusion),
    Plugin("examples", "every examples/*.py runs clean (subprocesses)",
           _run_examples, slow=True),
]


def run_checks(names: Optional[List[str]] = None) -> List[CheckResult]:
    """Run the named plugins (default: all fast ones) over one shared
    source cache; returns their results in registry order."""
    by_name = {p.name: p for p in PLUGINS}
    if names is None:
        selected = [p for p in PLUGINS if not p.slow]
    else:
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise KeyError(
                f"unknown check(s) {unknown}; available: {sorted(by_name)}"
            )
        selected = [by_name[n] for n in names]
    cache = SourceCache()
    return [p.run(cache) for p in selected]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="unified static-check runner (see module docstring)"
    )
    ap.add_argument("--list", action="store_true",
                    help="list registered plugins and exit")
    ap.add_argument("--only", type=str, default=None,
                    help="comma-separated plugin names to run")
    ap.add_argument("--all", action="store_true",
                    help="include slow plugins (examples subprocesses)")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit results as a stable JSON document")
    args = ap.parse_args(argv)

    if args.list:
        for p in PLUGINS:
            tag = " [slow]" if p.slow else ""
            print(f"{p.name:14s} {p.description}{tag}")
        return 0

    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
    elif args.all:
        names = [p.name for p in PLUGINS]
    else:
        names = None  # fast default set
    try:
        results = run_checks(names)
    except KeyError as e:
        print(f"check: {e.args[0]}", file=sys.stderr)
        return 2

    if args.as_json:
        print(json.dumps({
            "version": JSON_SCHEMA_VERSION,
            "ok": all(r.ok for r in results),
            "checks": [r.to_json() for r in results],
        }, indent=2))
    else:
        for r in results:
            if r.ok:
                print(f"OK   {r.name}: {r.summary}")
            else:
                for f in r.findings:
                    print(f"FAIL {r.name}: {f}")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
