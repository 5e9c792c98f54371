"""Steadiness check: two alternating sets of runs per workload.

    python3 perfbench/steady.py --runs 10 [--workloads kg_batch,kg_query]

Run ``i`` of set A uses seed ``1 + i`` and run ``i`` of set B seed
``1001 + i``; within each pair the set that goes first alternates.  For
every (workload, end-to-end metric) it prints each set's median and
quartiles, the spread (quartile distance over the median) and whether

- the spread is within the metric's bound in ``BENCHMARK.json``, and
- the two sets' medians differ by no more than the bound (as a share
  of set A's median).

The spread of ``setup_s`` is printed but exempt from the first check
(its verdict then reads "over bound, exempt"): set-up includes
``ray.init``, which alone takes 1.3-3.9 s from one start to the next on
the machine described in README.md.  Its medians must still agree.
The exit code is 0 when every check that is not exempt passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {(s, w): {m: [] for m in metrics} for s in "AB" for w in names}
    failures = 0
    for i in range(args.runs):
        for s in "AB" if i % 2 == 0 else "BA":
            seed = 1 + i + (1000 if s == "B" else 0)
            for w in names:
                res = run_once(w, seed, seconds)
                failures += res["failed"]
                for m in metrics:
                    values[(s, w)][m].append(res["metrics"][m]["value"])
                print(f"run {i} set {s} {w} seed {seed}: " + ", ".join(
                    f"{m}={res['metrics'][m]['value']:.4g}" for m in metrics), flush=True)

    ok = failures == 0
    print(f"\nfailed operations: {failures}")
    print(f"{'workload':<11} {'metric':<12} {'set':<3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for m, spec in metrics.items():
            meds = {}
            for s in "AB":
                q1, med, q3 = quartiles(values[(s, w)][m])
                meds[s] = med
                spread = (q3 - q1) / med
                within = spread <= spec["bound"]
                verdict = "ok" if within else (
                    "over bound, exempt" if m == "setup_s" else "SPREAD")
                if within and spread > spec["bound"] / 3:
                    verdict += " (over bound/3)"
                ok &= within or m == "setup_s"
                print(f"{w:<11} {m:<12} {s:<3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{spread:>7.3f} {spec['bound']:>6}  {verdict}")
            diff = (meds["B"] - meds["A"]) / meds["A"]
            agree = abs(diff) <= spec["bound"]
            ok &= agree
            print(f"{'':<11} {m:<12} B vs A: {diff:+.3f} ({'agree' if agree else 'DISAGREE'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
