"""Reference seconds: wall time corrected for the host's speed.

The 2-core host this benchmark was built on changes speed by up to 1.8x,
often several times a minute, with no steal time, so the same experiment
reads 0.6 s at one moment and 0.95 s a few seconds later, and the median
of a 30-second run moves by 20-30% from one run to the next.  A fixed
pure-Python loop, timed just before and just after each timed piece of
work, follows those changes.  Each workload's code follows them to its
own degree: its time goes with the loop's time to a power between 0.7
and 1.  So every time the benchmark reports is

    wall * (REF_CAL_S / cal) ** EXPONENT[workload]

where ``cal`` is the mean of the loop's two timings around the work and
``REF_CAL_S`` is the loop's time when the reference host (an Intel Xeon,
2 vCPUs, Python 3.11.7) runs at its usual, slower speed.  A change to the
program moves reference seconds in proportion to wall seconds; the raw
wall and loop times stay in each run's record file.
"""

import time

REF_CAL_S = 0.05
# The exponent at which ten runs of each workload agreed best on the
# reference host (interquartile range over median of the run medians).
EXPONENT = {
    "stage_ladder": 1.0,
    "publish_drain": 0.7,
    "encode_roundtrip": 1.0,
    "entropy_triangulate": 0.8,
}
_ITERATIONS = 200_000


def calibrate():
    """Seconds for the fixed loop."""
    start = time.perf_counter()
    table = {}
    for i in range(_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + (i * i) % 7
    return time.perf_counter() - start


def reference_seconds(wall, cal, workload):
    return wall * (REF_CAL_S / cal) ** EXPONENT[workload]
