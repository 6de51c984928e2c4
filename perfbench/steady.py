#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads serve-50k --runs 5

Each run is ``run.py`` with another seed (1..runs) and BENCHMARK.json's run
length. For every metric it prints the median, the quartiles
(``statistics.quantiles``, n=4) and the spread (q3 - q1) / median. End-to-end
metrics whose spread exceeds their bound are flagged ``OVER``, those above a
third of it ``warn``. It also checks that the share of failed operations is
the same in every run, and exits 1 if anything is flagged ``OVER`` or that
share differs.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run workloads repeatedly and report metric spreads.")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if not args.trace else {}

    flagged = 0
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        if len(shares) > 1:
            flagged += 1
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else ("warn" if spread > bound / 3 else "")
                flagged += flag == "OVER"
            print(f"  {name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
