"""A fixed probe of the machine's current speed, for speed-normalised times.

On a shared VM the same computation can take twice as long from one minute
to the next, with process CPU time moving with wall time: the CPU itself
runs slower, so neither CPU time nor longer runs remove it.  The benchmark
therefore runs this probe between every two timed operations and reports
each operation's wall time scaled by ``REFERENCE_S`` over the mean of the
probes just before and just after it: seconds on a machine where the probe
takes ``REFERENCE_S``.

The probe is the benchmark's own code and calls nothing of the program, so
a change to the program moves the operations' times and not the probe's.
It mixes what the program spends its time on: small dense numpy linear
algebra (an inverse, matrix-vector products, an argmin) and pure-Python
list and dict work around it.
"""

from __future__ import annotations

import time

import numpy as np

# seconds one probe is scaled to; about what it takes on the reference machine
REFERENCE_S = 0.01
_REPS = 160

_rng = np.random.default_rng(20240)
_A = _rng.normal(size=(32, 64))
_B = _rng.normal(size=(32, 32)) + 12.0 * np.eye(32)
_c = _rng.normal(size=64)


def probe() -> float:
    """Wall seconds of one fixed unit of work."""
    start = time.perf_counter()
    for _ in range(_REPS):
        binv = np.linalg.inv(_B)
        y = binv.T @ _c[:32]
        d = _c - _A.T @ y
        q = int(np.argmin(d)) % 32
        w = binv @ _A[:, q]
        ratios = sorted((v, i) for i, v in enumerate(w.tolist()) if v > 1e-9)
        index = {i: v for v, i in ratios}
        for i in range(32):
            index.get(i, 0.0)
    return time.perf_counter() - start


class SpeedScale:
    """Scales each timed operation by the probes on either side of it.

    ``scale`` is called right after an operation ends: the probe it runs
    then is also the probe before the next operation.
    """

    def __init__(self):
        probe()  # first-call costs
        self.last = probe()
        self.probes = [self.last]

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        return seconds * REFERENCE_S / (0.5 * (before + self.last))
