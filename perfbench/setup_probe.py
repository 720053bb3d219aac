"""Time one set-up in a fresh process: import singh_audit, build and parse a workload.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED SCALE
Prints the elapsed seconds, then the median of REFERENCE_REPEATS timings of
reference.work() made right after in the same process; ``run.py`` scales
the first by the second and takes the median over several probes.
"""

import statistics
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import singh_audit  # noqa: E402

import workloads  # noqa: E402

work = workloads.build(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
scenarios = [singh_audit.parse_scenario(doc) for doc in work.documents]
elapsed = time.perf_counter() - started

import reference  # noqa: E402

REFERENCE_REPEATS = 9
print(repr(elapsed), repr(statistics.median(reference.seconds() for _ in range(REFERENCE_REPEATS))))
