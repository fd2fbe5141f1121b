"""Fixed reference kernel that measures how fast this machine runs right now.

On a shared host the same code can run 1.7x slower for minutes at a time.
Timing this kernel next to the program and dividing it out turns a wall time
into seconds at a fixed nominal speed, which is what the bounded time
metrics report; the raw wall times are printed beside them.

Different kinds of work slow down by different amounts on a busy host, so
the kernel is built from the kinds of CPU work a workload does, in fixed
amounts: Python-level float parsing (as in CSV reading), numpy reductions
over windows (as in featurization) and small matrix products (as in
training). Measured against runs of the workloads, parsing plus reductions
tracked detect and generate best and reductions plus matrix products
tracked fit best. The kernel shares no code with drivemon, so no change to
the program moves it, except a change of numpy's BLAS thread count made
in-process, which would move its matrix products.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel part -> its time in seconds at nominal speed: roughly its time on
#: an idle 2-CPU x86-64 host, so normalized seconds read close to raw seconds
#: there.
NOMINAL_S = {"parse": 0.030, "reduce": 0.030, "matmul": 0.020}


class Reference:
    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)
        rng = np.random.default_rng(0)
        self._lines = [",".join(repr(float(x)) for x in row)
                       for row in rng.normal(size=(1500, 30))]
        self._windows = rng.normal(size=(600, 32, 46))
        self._batch = rng.normal(size=(256, 322))
        self._weights = rng.normal(size=(322, 182))

    def _parse(self):
        [[float(c) for c in line.split(",")] for line in self._lines]

    def _reduce(self):
        np.median(self._windows, axis=1)
        self._windows.std(axis=1)

    def _matmul(self):
        for _ in range(40):
            self._batch @ self._weights

    def seconds(self) -> float:
        started = time.perf_counter()
        for part in self.parts:
            getattr(self, "_" + part)()
        return time.perf_counter() - started

    def speed(self, samples: int = 5) -> float:
        """Median kernel time over a few runs, in units of its nominal time (>1 is slower)."""
        return statistics.median(self.seconds() for _ in range(samples)) / self.nominal_s
