#!/usr/bin/env python3
"""Summarize benchmark results written under perfbench/out/.

    python3 perfbench/summarize.py [result-*.json ...]

For each workload and trace setting: every metric's median over the runs,
its quartiles and the spread (Q3 - Q1) / median that the benchmark's bounds
are checked against.  Then, per estimator call and sampling rate, the median
seconds and PSNR over all runs (the baseline table in perfbench/README.md).
"""

import glob
import json
import os
import statistics
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(paths) -> int:
    results = []
    for p in paths or sorted(glob.glob(os.path.join(OUT, "result-*.json"))):
        with open(p) as f:
            results.append(json.load(f))
    if not results:
        print("no results found", file=sys.stderr)
        return 1
    groups: dict = {}
    for r in results:
        env = r["environment"]
        groups.setdefault((env["workload"], env["trace"]), []).append(r)

    for (workload, trace), runs in sorted(groups.items()):
        seeds = sorted(r["environment"]["seed"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload} trace={trace}: {len(runs)} runs, seeds {seeds}, "
              f"{failed} failed operations, all correct: {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            xs = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(xs)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:44s} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
                  f"spread {spread:.4f} {runs[0]['metrics'][name]['unit']}")

    rows: dict = {}
    for r in results:
        if r["environment"]["trace"]:
            continue
        for key, op in r["ops"].items():
            words = key.split()
            call = " ".join(words[:2]) if len(words) > 1 and words[1].endswith("%") else words[0]
            row = rows.setdefault((r["environment"]["workload"], call), ([], []))
            row[0].extend(op["seconds"])
            if op["psnr_db"] is not None:
                row[1].append(op["psnr_db"])
    print("\nper call, over all untraced runs: median seconds (calls), mean PSNR")
    for (workload, call), (secs, psnrs) in sorted(rows.items()):
        p = f"{statistics.fmean(psnrs):.2f} dB" if psnrs else ""
        print(f"  {workload:13s} {call:14s} {statistics.median(secs):9.4f} s "
              f"({len(secs):3d})  {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
