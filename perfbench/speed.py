"""A sampling probe of how fast this process runs right now.

The benchmark shares its cores with other tenants.  On a 2-vCPU VM the
wall time of one fixed replay moved by up to 50% from one minute to the
next, far more than any bound a regression check could use.  The probe
measures that drift while the timed code runs: every ``INTERVAL_S`` a
SIGALRM handler times a fixed snippet of interpreter work and random
reads from a table larger than the caches, the mix the workloads spend
their time on.  An interval's slowdown is its median snippet time over
``REFERENCE_S`` (the median, because a sample can catch a page fault
or a garbage-collection pass); a wall time divided by the slowdown of the same
interval is in *reference seconds*, which cancels most of the drift.
The handler's own time is taken out of the wall time first.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

_clock = time.perf_counter

INTERVAL_S = 0.025
PROBE_READS = 1000
TABLE_ITEMS = 1 << 20  # 40 MB of pointers and int objects: reads miss the caches
#: The snippet's typical time on the 2-vCPU box the benchmark was tuned
#: on; it only scales the reported values.
REFERENCE_S = 5.0e-4


class SpeedProbe:
    """Samples the snippet every ``INTERVAL_S`` between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        t0 = _clock()
        # Distinct int objects: each read follows a pointer to another line.
        self._table = list(range(TABLE_ITEMS))
        self.table_mb = (sys.getsizeof(self._table) + 32 * TABLE_ITEMS) / 2**20
        self._base = 0
        self._seen: dict[int, int] = {}  # reused: an allocation could start a GC pass
        self._busy = False
        self.samples: list[float] = []
        self.spent = _clock() - t0  # time the probe took from the timed code

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def reference_s(self, wall: float, begin: tuple, end: tuple) -> float:
        """``wall``, measured between marks ``begin`` and ``end``, in
        reference seconds."""
        window = self.samples[begin[0]:end[0]] or self.samples
        slowdown = statistics.median(window) / REFERENCE_S
        return (wall - (end[1] - begin[1])) / slowdown

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = _clock()
        table, mask = self._table, TABLE_ITEMS - 1
        # A new base each time, so the reads never find the last sample's lines cached.
        base = self._base = (self._base + 7_340_033) & mask
        seen = self._seen
        acc = 0
        for i in range(PROBE_READS):
            seen[i & 255] = i
            acc ^= table[(base + i * 40_503) & mask]
        t1 = _clock()
        self.samples.append(t1 - t0)
        self.spent += _clock() - t0
        self._busy = False
