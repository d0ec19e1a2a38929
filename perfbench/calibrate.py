"""A fixed calibration kernel that measures how fast the host is right now.

The machines this benchmark runs on are shared: their speed drifts by
+-20% over minutes, whatever the program does.  Each repetition therefore
times this kernel just before and just after its commands, and ``run.py``
divides the commands' wall time by the kernel's.  The kernel uses only
Python and numpy, never ``cosserat2d``, so a change to the package cannot
move it: a faster or slower program shows in full in the ratio, a faster or
slower host largely cancels.

The kernel mixes the three kinds of work the workloads do: scalar Python
arithmetic (the dispersion root bisection), float-to-text formatting (CSV
snapshots and reports) and elementwise numpy arithmetic on 256x256 fields
(the right-hand side and the energy).  Its inputs are fixed; it does not
depend on the workload seed.  It imports nothing that ``cosserat2d`` does
not, and its two fields take 1 MB, so it adds little to ``peak_rss_mb``.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Median duration of :func:`run` on the machine the benchmark was written
#: on (2 vCPUs, Python 3.11, numpy 2.4).  ``wall_cal_s`` is wall time
#: rescaled to a host where the kernel takes this long.
REFERENCE_S = 0.32

_N = 256
_rng = random.Random(20170515)
_A = np.array([_rng.random() for _ in range(_N * _N)]).reshape(_N, _N)
_B = np.array([_rng.random() for _ in range(_N * _N)]).reshape(_N, _N)
_VALUES = [_rng.gauss(0.0, 1.0) for _ in range(8000)]
_COEFFS = (1.0, -3.2, 2.9, -0.7)


def _scalar() -> float:
    """Bisect a cubic many times, in plain floats."""
    c3, c2, c1, c0 = _COEFFS
    total = 0.0
    for shift in range(500):
        lo, hi = 0.0, 1.0 + shift * 1e-3
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f = ((c3 * mid + c2) * mid + c1) * mid + c0 - shift * 1e-4
            if f > 0.0:
                lo = mid
            else:
                hi = mid
        total += lo
    return total


def _format() -> int:
    """Format floats as CSV rows."""
    size = 0
    for k in range(0, len(_VALUES), 8):
        size += len(",".join("%.17g" % v for v in _VALUES[k:k + 8]))
    return size


def _fields() -> float:
    """Elementwise arithmetic on two 256x256 fields."""
    a, b = _A, _B
    for _ in range(4):
        a = np.sqrt(a * a + b * b) * 0.5 + np.sin(b) * a - b * 0.25
    return float(a[0, 0])


#: How often :func:`run` repeats each part: about 0.1 s each on the
#: reference machine, so the three kinds of work weigh alike.  Weighing
#: them alike tracked all three workloads better, over five seeds each,
#: than weighing each workload's own kind of work more.
ROUNDS = {_scalar: 15, _format: 10, _fields: 16}


def run() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    for part, rounds in ROUNDS.items():
        for _ in range(rounds):
            part()
    return time.perf_counter() - start
