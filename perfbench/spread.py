#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds N]

For every workload, runs seeds 1..N untraced, one after another, and prints,
per metric, the median and the distance between the first and third
quartile (Python's statistics.quantiles, n=4) as a share of the median,
next to the metric's bound from BENCHMARK.json. Ends with exit code 1 if a
run failed or reported correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {run.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.seeds} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            flag = "" if spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:40s} median {med:<14.6g} spread {spread:7.4f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
