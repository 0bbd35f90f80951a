#!/usr/bin/env python3
"""Gate allocation per committed transaction against its pins.

    python3 .github/alloc-gate.py perfbench.out

Reads alloc_words_per_txn for each workload from the JSON line that
ends the perfbench output and compares it with .github/perfbench-alloc.txt.
Exits 1 when a workload is missing or exceeds its pin by more than the
alloc_words_per_txn bound declared in BENCHMARK.json.
"""
import json
import os
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(root, "BENCHMARK.json")) as f:
    bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                 if m["name"] == "alloc_words_per_txn")
pins = {}
with open(os.path.join(root, ".github", "perfbench-alloc.txt")) as f:
    for line in f:
        if line.strip() and not line.startswith("#"):
            name, value = line.split()
            pins[name] = float(value)
with open(sys.argv[1]) as f:
    metrics = json.loads(f.read().splitlines()[-1])["metrics"]

failed = False
for name, pin in pins.items():
    entry = metrics.get(name + ".alloc_words_per_txn")
    if entry is None:
        print(f"{name}: no alloc_words_per_txn in the output")
        failed = True
        continue
    value = entry["value"]
    limit = pin * (1 + bound)
    verdict = "ok" if value <= limit else "FAIL"
    failed |= value > limit
    print(f"{name}: {value:.2f} words/txn, pin {pin:.2f}, limit {limit:.2f} (+{bound:.0%}): {verdict}")
sys.exit(1 if failed else 0)
