"""Host-speed probe.

The benchmark shares its machine with other tenants, whose load changes the
speed of this process by up to ~2x over a few seconds. A fixed probe, timed
in bursts between ops, measures that speed, and the gated timing metrics are
scaled to a reference speed with it (see ``Probe``):

    adjusted latency = raw latency * reference probe time / probe time around the op

No change to twinsource moves the probe, so a change to the program moves the
adjusted metric as it moves the raw one, while host-speed swings cancel.
Raw values are printed beside the adjusted ones.

Two kinds, chosen to slow down as the workload's own work does:

loop   a pure-Python arithmetic loop in the workload's process, for the
       in-process workloads (five 15 s hom-calibration runs spread 45% in raw
       ops/s and 7% adjusted);
spawn  a fresh interpreter importing numpy and scipy, for cli-figures, whose
       ops are fresh interpreters (a loop probe did not track them).
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

# probe medians on an idle 2-vCPU Intel Xeon KVM guest, Python 3.11
REFERENCE_S = {"loop": 4.0e-4, "spawn": 0.6}
SPAWN_ARGV = [sys.executable, "-c", "import numpy, scipy.optimize, scipy.interpolate"]


def _loop() -> float:
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i + acc % 7.0) * 0.5
    return acc


def _spawn():
    subprocess.run(SPAWN_ARGV, check=True)


class Probe:
    """Probe samples of one process, and the op latencies they adjust.

    ``add`` queues an op latency; the next ``burst`` scales every queued
    latency by reference / mean of the medians of the bursts just before and
    just after it, and moves it to ``adjusted``. Bracketing each op this way
    follows swings that last about as long as the ops; on 12 s runs it halved
    the spread against one factor per run (hom-calibration 5.5% -> 2.7%,
    cavity-scan 7.1% -> 4.6% IQR/median).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        self._kernel = _loop if kind == "loop" else _spawn
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.last = -math.inf
        self._prev = None  # median of the latest burst
        self._pending: list = []
        self.adjusted: list = []  # (key, adjusted latency) in the order added

    def add(self, latency: float, key=None):
        self._pending.append((key, latency))

    def burst(self, n: int = 1):
        t_burst = perf_counter()
        times = []
        for _ in range(n):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        self.samples += times
        now = statistics.median(times)
        if self._pending:
            scale = self.reference_s / (0.5 * (self._prev + now))
            self.adjusted += [(key, t * scale) for key, t in self._pending]
            self._pending.clear()
        self._prev = now
        self.last = perf_counter()
        self.spent_s += self.last - t_burst

    def every(self, interval_s: float = 0.1, n: int = 5):
        """Burst if ``interval_s`` has passed since the last one."""
        if perf_counter() - self.last >= interval_s:
            self.burst(n)

    def median(self) -> float:
        return statistics.median(self.samples)

    def speed(self) -> float:
        """Reference probe time over this process's probe median."""
        return self.reference_s / self.median()
