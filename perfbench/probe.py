"""Machine-speed probe: a fixed kernel timed between operations.

A shared virtual machine's speed drifts by 20-40 % over minutes with
load from other guests that no process inside can see (on a 2-vCPU
Intel Xeon guest, raw wall times of one workload spread 37 % between
quartiles over five seeds). A
fixed kernel timed right before, between and right after a repetition's
operations measures that drift; dividing by its mean turns a raw time
into the time the same work would take at the reference speed
``REFERENCE_S``. The kernel mixes the two kinds of work the program does,
small-array numpy with a banded LAPACK solve and scalar Python math, and
uses no clinewave code, so no change to the program can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import solve_banded

# Mean probe time on a quiet 2-vCPU Intel Xeon guest
# (Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_S = 0.075

_N = 1401
_BANDS = np.zeros((3, _N))
_BANDS[0, 1:] = -1.0
_BANDS[1] = 3.0
_BANDS[2, :-1] = -1.0


def probe() -> float:
    """Seconds taken by the fixed kernel now."""
    start = time.perf_counter()
    u = np.linspace(0.0, 1.0, _N)
    for _ in range(400):
        g = np.gradient(u, 0.1)
        u = solve_banded((1, 1), _BANDS, u + 0.01 * g * g * (1.0 - u))
        u /= u.max()
    acc = 0.0
    for i in range(60000):
        y = (i % 97) * 0.01
        acc += math.sqrt(max(math.expm1(y) - y, 0.0)) * math.exp(-y)
    return time.perf_counter() - start


def calibrated(seconds: float, probes: list[float]) -> float:
    """``seconds`` rescaled to the reference speed by the probes taken around it."""
    return seconds * REFERENCE_S / (sum(probes) / len(probes))
