"""A fixed task that measures the host's current speed.

On a shared virtual machine the same code can run up to 1.7x slower for
seconds or minutes at a time, with CPU time rising as much as wall time
(README.md, "Host speed").  Every timed operation and every set-up sample
is therefore paired with runs of ``calibrate()`` and reported in
*reference milliseconds*:

    reference_ms = measured_ms * REFERENCE_MS / calibration_ms

that is, the time the operation takes on a host that runs the calibration
task in ``REFERENCE_MS``, with ``calibration_ms`` the mean of the runs
just before and just after the operation.
The task does what the package mostly does: frozenset unions and
intersections and dict inserts in pure Python, on a working set of about
a megabyte.  It imports nothing from localix, so no change to the
program can move it.

``python3 bench/calibration.py`` prints the task's times on this host.
"""

from __future__ import annotations

import statistics
import time

# The task's time on the host the reference figures in README.md were
# taken on, at its faster speed.  It only fixes the unit: changing it
# rescales every time metric and breaks comparisons with older runs.
REFERENCE_MS = 1.5

_POOL = [frozenset(range(i, i + 40)) for i in range(0, 4000, 7)]


def calibrate() -> float:
    """Run the task once; its wall time in ms."""
    t0 = time.perf_counter()
    acc = 0
    for a, b in zip(_POOL, _POOL[1:]):
        acc += len(a & b) + len(a | b)
    sizes = {}
    for s in _POOL[:300]:
        sizes[s] = len(s)
    return (time.perf_counter() - t0) * 1000


def to_reference(measured_ms: float, calibration_ms: float) -> float:
    return measured_ms * REFERENCE_MS / calibration_ms


if __name__ == "__main__":
    runs = [calibrate() for _ in range(2000)]
    q = statistics.quantiles(runs, n=10)
    print(f"calibration task: min {min(runs):.3f} ms, p10 {q[0]:.3f}, median {statistics.median(runs):.3f}, "
          f"p90 {q[-1]:.3f}; REFERENCE_MS = {REFERENCE_MS}")
