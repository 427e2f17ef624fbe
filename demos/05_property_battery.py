"""
Running the property battery
=============================

The suite sweeps a seeded population of random digraphs through every
invariant the library promises: closed-form agreement, orientation and
relabeling insensitivity, psi independence, maximal entanglement at
theta = pi/2, the per-vertex degree law, gate identities, kernel
cross-validation, per-case Bloch-vector forms, and degree sufficiency.

The CLI equivalent (exit code 1 on any violation):

    digraph-ed suite --seed 7 --graphs 200 --max-M 12
"""

import time

from digraph_ed import run_suite

start = time.monotonic()
report = run_suite(seed=7, n_graphs=200, max_m=12)
elapsed = time.monotonic() - start

for line in report.summary_lines():
    print(line)
print(f"\n{report.n_graphs} graphs, max M = {report.max_m}, {elapsed:.2f} s")
