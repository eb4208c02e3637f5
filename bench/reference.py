"""Reference kernels that gauge the host's speed during a run.

On a shared host the CPU's speed drifts by a fifth or more over minutes,
which is longer than a run, so no statistic taken inside one run can
remove it.  The runner therefore times a fixed kernel (best of three)
just before every call, and reports each time as

    scaled time = time * NOMINAL_S / kernel time

that is, the time the call would take on a host that runs the kernel in
NOMINAL_S.  Best call times are scaled by the kernel's best time in the
run, median set-up times by its median time.  The kernels do not touch
corrbinom, so any change in the program still shows in full.  Two kernels
cover the two kinds of work the workloads do: ``python`` (interpreted
scalar math and small objects, like the per-observation loops) and
``numpy`` (passes over arrays far larger than the caches, like the grid
scans).  Of the python kernels tried, one that allocates many small objects
tracked the study's drift best; none tracks it fully.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Each kernel's best time on an Intel Xeon at 2.1 GHz (Python 3.11, numpy 2.4).
NOMINAL_S = {"python": 0.006, "numpy": 0.013}

_GRID = 2001


def _python_kernel() -> float:
    items = [(i * 0.5, math.lgamma(i % 50 + 1.0), str(i)) for i in range(15000)]
    total = 0.0
    for half, lgamma, text in items:
        total += half - lgamma + len(text)
    return total


def _numpy_kernel() -> float:
    grid = np.linspace(0.5, 1.5, _GRID)[:, None] + np.linspace(0.0, 1.0, _GRID)[None, :]
    np.log(grid, out=grid)
    return float(grid.max())


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def gauge(kind: str) -> float:
    """Best of three timed runs of one kernel, in seconds."""
    kernel = _KERNELS[kind]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
