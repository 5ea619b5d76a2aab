"""Host-speed calibration shared by the benchmark and its set-up probe.

On a shared 2-vCPU Xeon host the speed drifted by up to 20% within seconds
and by as much between minutes, with CPU time tracking wall time, so the
drift is not scheduling. A calibration slice is a fixed piece of pure-Python
list and integer work; slices run next to the measured work time the host's
current speed, and measured times are scaled to a reference host on which
one slice takes REF_S.
"""

import statistics
import time

ITERATIONS = 6000
REF_S = 0.001


def slice_s() -> float:
    """Time one calibration slice (about 1 ms on the reference host)."""
    table = list(range(512))
    start = time.perf_counter()
    x = 0
    for i in range(ITERATIONS):
        x = table[(x + i) & 511]
        table[i & 511] = (x * 31 + i) & 511
    return time.perf_counter() - start


def scale(slices: list[float]) -> float:
    """Factor that converts times measured next to these slices to the
    reference host speed."""
    return REF_S / statistics.median(slices)
