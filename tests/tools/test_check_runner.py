"""Tier-1 enforcement of the unified check runner (``tools/check.py``).

Running every fast plugin clean here wires the whole invariant set —
lock discipline, docstring coverage, the exported API surface, the
nondeterminism lint and static communication-plan coherence — into the
plain ``pytest`` loop.  The self-tests pin the runner's own semantics
(plugin selection, JSON schema stability, exact-line findings from the
nondet scanner) so the enforcement cannot rot into a vacuous pass.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check  # noqa: E402


def test_every_fast_plugin_runs_clean_on_the_repo():
    results = check.run_checks()  # the default (fast) set
    failures = [
        f"{r.name}: {f}" for r in results for f in r.findings
    ]
    assert not failures, "\n".join(failures)
    # the fast set is every non-slow plugin, each producing a summary
    assert [r.name for r in results] == [
        p.name for p in check.PLUGINS if not p.slow
    ]
    assert all(r.summary for r in results)


def test_cli_all_fast_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check.py")],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK   lock" in proc.stdout


def test_json_schema_is_stable():
    results = check.run_checks(["lock", "nondet"])
    doc = {
        "version": check.JSON_SCHEMA_VERSION,
        "ok": all(r.ok for r in results),
        "checks": [r.to_json() for r in results],
    }
    doc = json.loads(json.dumps(doc))  # round-trips as plain JSON
    assert doc["version"] == 2  # v2: commplan plugin + nondet waivers
    assert set(doc) == {"version", "ok", "checks"}
    for entry in doc["checks"]:
        assert set(entry) == {"name", "ok", "summary", "findings"}
        for f in entry["findings"]:
            assert set(f) == {"file", "line", "message"}


def test_only_selects_and_rejects_unknown():
    (result,) = check.run_checks(["docs"])
    assert result.name == "docs"
    with pytest.raises(KeyError):
        check.run_checks(["no-such-check"])


def test_cli_only_unknown_exits_two_listing_names():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check.py"),
         "--only", "bogus,nondet,also-bogus"],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    # the message names every unknown plugin and the registry to pick from
    assert "bogus" in proc.stderr and "also-bogus" in proc.stderr
    for p in check.PLUGINS:
        assert p.name in proc.stderr


def test_list_names_every_plugin():
    names = {p.name for p in check.PLUGINS}
    assert {"lock", "docs", "exports", "nondet",
            "commplan", "examples"} <= names
    # the commplan planner coherence sweep runs in the fast (tier-1) set
    assert "commplan" in {p.name for p in check.PLUGINS if not p.slow}
    # exactly one slow plugin today: the examples subprocess runner
    assert [p.name for p in check.PLUGINS if p.slow] == ["examples"]


class TestNondetScanner:
    def _scan(self, source):
        return check._scan_nondet("fake.py", source, ast.parse(source))

    def test_flags_unseeded_random_and_wallclock_with_lines(self):
        src = (
            "import numpy as np\n"
            "import time\n"
            "def kernel(x):\n"
            "    noise = np.random.random(x.shape)\n"   # line 4
            "    t0 = time.perf_counter()\n"            # line 5
            "    return noise, t0\n"
        )
        findings = sorted(self._scan(src), key=lambda f: f.line)
        assert [f.line for f in findings] == [4, 5]
        assert "unseeded randomness" in findings[0].message
        assert "wall-clock" in findings[1].message

    def test_seeded_generator_is_the_documented_fix(self):
        src = (
            "import numpy as np\n"
            "def kernel(x, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng\n"
        )
        # default_rng construction itself is allowed...
        flagged = [f for f in self._scan(src) if "default_rng" in f.message]
        assert not flagged

    def test_clean_kernel_produces_no_findings(self):
        src = (
            "import numpy as np\n"
            "def kernel(vals, out):\n"
            "    out[...] = np.add.reduce(vals)\n"
        )
        assert self._scan(src) == []

    def test_seeded_generator_methods_are_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def build(seed, n):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random(n)\n"
        )
        assert self._scan(src) == []

    def test_waiver_with_reason_silences_the_finding(self):
        src = (
            "import time\n"
            "def bench():\n"
            "    return time.perf_counter()"
            "  # nondet: ok measures host overhead\n"
        )
        assert self._scan(src) == []

    def test_waiver_without_reason_is_itself_a_finding(self):
        src = (
            "import time\n"
            "def bench():\n"
            "    return time.perf_counter()  # nondet: ok\n"
        )
        findings = self._scan(src)
        assert len(findings) == 1
        assert "without a reason" in findings[0].message

    def test_scipy_sparse_random_needs_random_state(self):
        src = (
            "import scipy.sparse as sp\n"
            "import numpy as np\n"
            "def build(n, rng):\n"
            "    bad = sp.random(n, n, density=0.1)\n"
            "    good = sp.random(n, n, density=0.1, random_state=rng)\n"
            "    return bad, good\n"
        )
        findings = self._scan(src)
        assert [f.line for f in findings] == [4]
        assert "random_state" in findings[0].message


def test_legacy_entry_points_still_work():
    # the wrapped scripts keep their standalone CLIs (back-compat)
    import api_check
    import docs_check
    import lock_check

    assert lock_check.main() == 0
    assert docs_check.main([]) == 0
    assert api_check.export_problems() == []
