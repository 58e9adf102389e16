"""Peak resident memory of a workload's operations in a fresh process.

Usage: python3 memprobe.py WORKLOAD SEED
Imports univoque, runs the first rounds of the workload's seeded
operations (no checks, no timing) and prints the peak resident set in
KiB.  Measured apart from the timing loop so that the benchmark's own
bookkeeping, which grows with the run, does not count.
"""

import resource
import sys

import run
import workloads

ROUNDS = 2

u = run.load_univoque()
workload = workloads.WORKLOADS[sys.argv[1]](u)
for index in range(ROUNDS):
    for x in workload.make_round(int(sys.argv[2]), index):
        workload.run(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
