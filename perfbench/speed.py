"""Machine-speed probe.

On a shared virtual machine the CPU itself speeds up and slows down: the
same fixed work, repeated in one process, takes up to twice as long from
one second to the next, and the process's CPU time moves with its wall
time.  Every job latency is therefore reported together with the speed of
the machine at that moment, measured by a fixed kernel that does not touch
ncergo (small complex SVDs and products plus a Python dict loop, the mix
ncergo's jobs spend their time in), taken between jobs.  A latency is
scaled by REFERENCE_S / (probe time interpolated at the job's midpoint),
which expresses it in milliseconds of the reference machine; the raw times
are printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time on the machine of the recorded baseline (BASELINE.md)
REFERENCE_S = 0.0160
# a new probe is taken before a job when the latest is older than this
EVERY_S = 0.25


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                      for _ in range(8)]
        self.samples: list = []  # probe seconds
        self.times: list = []    # midpoint of each probe on the perf_counter clock
        self.measure()  # the first run is cold (code paths, LAPACK set-up): drop it
        self.samples.clear()
        self.times.clear()

    def measure(self) -> float:
        """Seconds taken by the fixed kernel now."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            for m in self._mats:
                acc += float(np.linalg.svd(m, compute_uv=False)[0])
                acc += float(np.abs(m @ m).max())
            acc += sum({i: i * 0.5 for i in range(200)}.values())
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.times.append((t0 + t1) / 2)
        return t1 - t0

    def tick(self):
        """Probe unless the latest probe is younger than EVERY_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.measure()

    def factors(self, midpoints) -> np.ndarray:
        """REFERENCE_S / probe time, interpolated at each job's midpoint
        between the probes taken before and after it."""
        return REFERENCE_S / np.interp(midpoints, self.times, self.samples)
