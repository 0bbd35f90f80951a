#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments go to bench.exe unchanged. The build runs in the checkout
that holds this file, with dune's shared cache off, so nothing is read
or written outside it. Build messages go to standard error, so the
last line of standard output stays the benchmark's JSON result. A
failed build exits with dune's status and prints no result.
"""
import os
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
env = dict(os.environ, DUNE_CACHE="disabled")
build = subprocess.run(
    ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/bench.exe"],
    cwd=root, env=env, stdout=sys.stderr)
if build.returncode != 0:
    sys.exit(build.returncode)
exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
sys.stdout.flush()
os.execv(exe, [exe] + sys.argv[1:])
