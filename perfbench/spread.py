#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3] [--seconds S] [--trace 0|1]

Runs from the repository root, one run at a time, and prints for every
metric its median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.
"""
import argparse
import json
import statistics
import subprocess
import sys

p = argparse.ArgumentParser()
p.add_argument("--workload", required=True)
p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
p.add_argument("--seconds", type=int, default=10)
p.add_argument("--trace", default="0")
a = p.parse_args()

values = {}
for seed in a.seeds.split(","):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", seed,
         "--seconds", str(a.seconds), "--trace", a.trace],
        capture_output=True, text=True)
    line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    try:
        res = json.loads(line)
    except ValueError:
        sys.exit(f"seed {seed}: no result (exit {out.returncode})\n{out.stdout}\n{out.stderr}")
    print(f"seed {seed}: exit {out.returncode} correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    for name, m in res["metrics"].items():
        values.setdefault(name, []).append(m["value"])

for name, vs in values.items():
    med = statistics.median(vs)
    q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
    spread = (q[2] - q[0]) / med if med else float("nan")
    print(f"{name:28s} median {med:14.6g}  spread {spread:7.4f}  values {' '.join(f'{v:.6g}' for v in vs)}")
