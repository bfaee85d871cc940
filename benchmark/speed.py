"""Machine-speed gauge: a fixed NumPy loop timed around every timed run.

On a shared machine the CPU runs in speed states that differ by up to 1.6x
and last from seconds to minutes, so raw wall times of the same code spread
by 20% or more from one run to the next. The gauge times a loop of small
array operations and batched Hermitian ``eigh`` calls, the same mix of
interpreter overhead and LAPACK that the workloads spend their time in, and
it uses no fermigauss code: a change to the program moves the scaled times
exactly as it moves the raw ones.

A timing taken between two gauge readings is scaled by
``NOMINAL_S / mean(before, after)``, which reports it at one fixed machine
speed: the speed at which the gauge takes ``NOMINAL_S``.
"""

import statistics
import time

import numpy as np

#: Gauge time at the speed that scaled timings are reported at (the fast
#: state of a 2-vCPU Intel Xeon virtual machine).
NOMINAL_S = 0.0175


def _inputs():
    rng = np.random.default_rng(0)
    small = rng.standard_normal((16, 2))
    z = rng.standard_normal((8, 8, 8))
    return small, z + np.swapaxes(z, 1, 2)


def gauge_s(repeats: int = 3) -> float:
    """Median time of ``repeats`` passes of the fixed loop."""
    small, herm = _inputs()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(250):
            y = np.where(small > 0, small, -small)
            np.log(np.abs(y) + 1.0).sum(axis=-1)
            np.linalg.eigh(herm)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that converts a time taken between two readings to nominal speed."""
    return NOMINAL_S / (0.5 * (before + after))
