"""Host speed, from a fixed piece of pure-Python work timed before each job.

On a shared host the speed of the interpreter wanders: the same loop
takes up to 1.7 times as long for seconds to minutes at a time, in CPU
time as well as in wall time, because other tenants share the cores and
their caches.  The calibration work below does not touch ``ntg``; it is
the kind of work the library does (partition refinement over dicts and
tuples of strings, small objects, method calls), and it slows down
together with the jobs.  A run of a job is therefore timed in units of the
calibration run just before it, and converted back to seconds at a fixed
reference speed.  On the host the benchmark was defined on (2 vCPUs,
Python 3.11), the median of these ratios over a job's runs stayed within
about 2% from process to process while the job's fastest wall time moved
by up to 1.7 times.  A code change in ``ntg`` moves the jobs and not the
calibration, so it shows in full in the converted times.  Child processes
do not follow the calibration as well (their start-up is mostly kernel
and import work), which is why the ``python -m ntg`` jobs of the gated
workloads run outside the timed rounds.
"""

from __future__ import annotations

import time

# the median calibration run, between jobs, on the host the benchmark was
# defined on, so that a converted time reads close to that host's wall time
REFERENCE_S = 0.002


class _Node:
    __slots__ = ("name", "succ")

    def __init__(self, name: str, succ: tuple):
        self.name = name
        self.succ = succ

    def key(self, block) -> tuple:
        return (block[self.name], tuple(block[w] for w in self.succ))


def calibration_work() -> int:
    """Partition refinement on 16 chains of 12 named vertices, which takes
    one round per chain position; returns the number of blocks (12)."""
    length, n = 12, 192
    names = [f"v{i}" for i in range(n)]
    nodes = [_Node(names[i], (names[i + 1 if i % length < length - 1 else i],
                              names[(7 * i) % n]))
             for i in range(n)]
    block = {v: int(i % length == length - 1) for i, v in enumerate(names)}
    count = 0
    while True:
        ids: dict = {}
        block = {v.name: ids.setdefault(v.key(block), len(ids)) for v in nodes}
        if len(ids) == count:
            return count
        count = len(ids)


def calibrate() -> float:
    """Wall time of one calibration run, in seconds."""
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def at_reference(wall: float, calib: float) -> float:
    """``wall``, measured right after a calibration run that took
    ``calib``, converted to the reference speed."""
    return wall / calib * REFERENCE_S
