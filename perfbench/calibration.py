"""A fixed kernel that tracks how fast the machine runs at the moment.

On a shared host the same Python-bound work runs up to twice as fast in one
minute as in the next, in phases longer than a run. The kernel does the kind
of work the package's small-table paths do (small-array numpy calls, Python
objects per step) but none of the package's code, so a change to the package
cannot move it. Timing it around each round of items and converting the
round's wall time to *reference seconds*, at which the kernel takes
``REFERENCE_S``, cancels most of the host's drift while leaving the package's
own speed in the rate:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure near the kernel time (0.012-0.015 s) on the 2-vCPU Xeon host
# the seed baseline was measured on; it only sets the scale of a reference second.
REFERENCE_S = 0.012
STEPS = 400


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    rows = []
    for step in range(STEPS):
        x = rng.standard_t(5, size=200)
        ordered = np.sort(x)
        rank = np.searchsorted(ordered, 0.1)
        mass = np.exp(-0.5 * np.abs(x[:100])).sum() + np.log1p(ordered * ordered).mean()
        rows.append({"step": step, "rank": int(rank), "mass": float(mass)})
    return time.perf_counter() - start


def speed(repeats: int) -> float:
    """How many reference seconds one wall second is worth right now:
    REFERENCE_S over the mean of ``repeats`` kernel times. The host takes
    the processor away in bursts of a few milliseconds; a mean counts them
    as the work around it feels them, where a median would skip them."""
    return REFERENCE_S / statistics.fmean(kernel_seconds() for _ in range(repeats))
