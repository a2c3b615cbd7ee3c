"""Steadiness self-check: how far each metric spreads across repeated runs.

    python3 perfbench/steady.py --workloads spmv-power --seeds 1 2 3 4 5
    python3 perfbench/steady.py --trace 1 --seeds 1 7

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
from the repository root.  For every metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.

* End-to-end metrics (``--trace 0``) are *resolved* when the spread stays
  within the metric's ``bound`` in ``BENCHMARK.json`` and *unresolved*
  otherwise; ``setup_s`` is held to its bound too.
* Per-layer metrics (``--trace 1``) have no bound; their spread is shown.
  The metrics ``run.EXACT`` names must repeat exactly: the first seed is
  run twice and every exact metric must read the same in both runs.

Exit status 1 when a run fails or is incorrect, a metric is unresolved,
or an exact metric differs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import EXACT  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seeds = list(args.seeds)
    if args.trace:
        seeds.append(seeds[0])  # a repeat of the first seed, for EXACT

    bad = False
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            res = run_once(workload, seed, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: {res['failed']} of "
                      f"{res['attempted']} calls failed")
                bad = True
            runs.append(res["metrics"])
            if not args.trace:
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                ), flush=True)
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  status")
        for m in declared:
            name = m["name"]
            values = [r[name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            if "bound" in m:
                status = "resolved" if sp <= m["bound"] else "UNRESOLVED"
                bad |= status != "resolved"
                bound = f"{m['bound']:6.2f}"
            elif name in EXACT:
                same = values[0] == values[-1]
                status = "exact" if same else "EXACT-MISMATCH"
                bad |= not same
                bound = "     -"
            else:
                status, bound = "", "     -"
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:8.4f} {bound}  {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
