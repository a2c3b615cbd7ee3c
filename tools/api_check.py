#!/usr/bin/env python
"""Public-surface lint for the high-level API.

Two checked scenarios (``--scenario`` picks one, mirroring
``tools/bench_check.py``):

* **exports** — ``repro.__init__`` must re-export the documented public
  surface (the Session front end, ``einsum``, ``Tensor``, the formats,
  ``Schedule``, …), everything in ``__all__`` must resolve, and every
  export must carry a docstring (format *instances* are checked through
  their class).
* **examples** — every ``examples/*.py`` must run clean under
  ``PYTHONPATH=src`` (they are the executable documentation of the API).

Exits non-zero on any violation.  Usage::

    python tools/api_check.py                       # both scenarios
    python tools/api_check.py --scenario exports
    python tools/api_check.py --scenario examples
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
EXAMPLES = REPO / "examples"

#: The documented public surface (docs/api.md) — must stay re-exported.
REQUIRED_EXPORTS = [
    # high-level front end
    "session", "Session", "Program", "einsum", "auto_schedule",
    # multi-tenant serving layer
    "serve", "Server", "ServeResult",
    # building blocks
    "Tensor", "Schedule", "Machine", "index_vars",
    "compile_kernel", "compile_program",
    # static analysis
    "analyze_program", "AnalysisReport", "predict_metrics",
    # formats
    "Format", "CSR", "CSC", "CSF3", "DDC",
    "DENSE_MATRIX", "DENSE_VECTOR", "SPARSE_VECTOR",
    # errors
    "ReproError", "CompileError", "ScheduleError", "FormatError", "OOMError",
    "AnalysisError", "WriteHazard", "IllegalCSE", "UnsupportedEinsum",
]


def _import_repro():
    sys.path.insert(0, str(SRC))
    import repro

    return repro


def export_problems() -> list:
    """Every problem with the exported surface (empty = clean)."""
    repro = _import_repro()
    problems = []
    exported = set(getattr(repro, "__all__", ()))
    for name in REQUIRED_EXPORTS:
        if name not in exported:
            problems.append(f"repro.__all__ lacks the documented export {name!r}")
        if not hasattr(repro, name):
            problems.append(f"repro.{name} does not resolve")
    for name in sorted(exported):
        obj = getattr(repro, name, None)
        if obj is None:
            problems.append(f"repro.__all__ names {name!r} but it does not resolve")
            continue
        if name.startswith("__"):
            continue  # dunders (__version__) carry no docstring
        doc = getattr(obj, "__doc__", None)
        if not isinstance(obj, type) and not callable(obj):
            # Instances (the format singletons) are documented by class.
            doc = type(obj).__doc__
        if not doc or not doc.strip():
            problems.append(f"repro.{name} has no docstring")
    return problems


def check_exports() -> int:
    """The documented surface is exported, resolvable and documented."""
    problems = export_problems()
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    exported = set(getattr(_import_repro(), "__all__", ()))
    print(f"exports: {len(exported)} names, all resolve and are documented "
          f"({len(REQUIRED_EXPORTS)} required present)")
    return 0


def example_failures() -> list:
    """(script name, failure detail) for every example that does not run
    clean under ``PYTHONPATH=src`` (empty = all clean)."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failures = []
    for script in sorted(EXAMPLES.glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(script)], env=env,
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            failures.append((
                script.name,
                f"exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}",
            ))
    return failures


def check_examples() -> int:
    """Every example runs clean under PYTHONPATH=src."""
    failures = example_failures()
    for name, detail in failures:
        print(f"FAIL: {name} {detail}")
    if not failures:
        for script in sorted(EXAMPLES.glob("*.py")):
            print(f"examples: {script.name} ran clean")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", choices=("exports", "examples", "all"),
                    default="all")
    args = ap.parse_args(argv)
    rc = 0
    if args.scenario in ("exports", "all"):
        rc |= check_exports()
    if args.scenario in ("examples", "all"):
        rc |= check_examples()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
