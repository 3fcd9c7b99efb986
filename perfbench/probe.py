"""CPU speed probe: times a fixed kernel every 50 ms while a workload runs.

On shared hosts the whole CPU can run up to ~1.6x slower for seconds to
minutes at a time, while steal time stays 0 and process CPU time tracks wall
time, so neither reveals it. The probe samples the speed of the CPU the
workload runs on, from a background thread of the same process; the
workload's wall time divided by the mean slowdown over the samples is its
wall time at the reference speed. The kernel mixes interpreter work with
small numpy calls, as the workloads do, and holds the GIL for ~0.3 ms per
sample (~1 % of the run).
"""

from __future__ import annotations

import threading
import time

import numpy as np

INTERVAL_S = 0.05
# Uncontended duration of one kernel call on the reference machine (Intel
# Xeon, 2 vCPUs, Python 3.11, numpy 2.4): the scale of "reference speed".
REFERENCE_S = 3.0e-4


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._x = np.random.default_rng(0).normal(size=(32, 10))
        self._w = np.zeros((10, 4))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _kernel(self) -> None:
        for _ in range(20):
            s = self._x @ self._w
            s -= s.max(axis=1, keepdims=True)
            p = np.exp(s)
            p /= p.sum(axis=1, keepdims=True)
            acc = 0
            for i in range(40):
                acc += i * i

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """Wall time over reference-speed time, from evenly spaced samples.

        A stretch of wall time dt at slowdown f does dt / f of reference-speed
        work, so the slowdown of ``samples[first:last]`` is the harmonic mean
        of theirs; 1.0 when the stretch holds no sample.
        """
        samples = self.samples[first:last]
        if not samples:
            return 1.0
        return len(samples) / sum(REFERENCE_S / s for s in samples)
