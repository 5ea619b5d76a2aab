"""Time one workload's set-up in a fresh process: importing the program,
enumerating the tuples or types, and building their presentations.

    python3 perfbench/setup_probe.py atlas

Prints the seconds and the median calibration slice measured around them.
"""

import statistics
import sys
import time

# Standard modules the benchmark's own code needs; loaded before the clock
# starts so that only the program's import is timed.
import contextlib, dataclasses, hashlib, io, json, os, pathlib, typing  # noqa: E401, F401

import calibration

before = [calibration.slice_s() for _ in range(15)]
start = time.perf_counter()

import workloads  # noqa: E402

workloads.build(sys.argv[1])
elapsed = time.perf_counter() - start
after = [calibration.slice_s() for _ in range(15)]
print(elapsed, statistics.median(before + after))
