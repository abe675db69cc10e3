"""Host-speed probe: a fixed reference kernel timed between the ops.

The benchmark runs on shared virtual machines whose speed changes by up
to 2x for minutes at a time, with CPU time following wall time: the
whole host gets slower, not just our share of it.  A run that happens to
fall in a slow stretch would read as a regression.  So the timed loop
runs this kernel once after every op, and every op time is scaled by
how long the kernel took around it, to what it would have been on a host
where the kernel takes REFERENCE_S.

The kernel is a few hundred small numpy array operations driven from
Python: allocation, slicing, an argmin and an outer-product update, as
in a dense simplex pivot, plus the interpreter's own loop and call
overhead.  In 100-second recordings of each workload, medians of 20 op
times followed medians of the kernel's times with a log-log slope of
0.94-1.02 (correlation 0.91-0.95), for the pure-Python workloads as well
as the numpy one.  The kernel uses nothing from openride, so a change to
the program cannot move it, and only its second pass is timed, so it
does not depend on what the op before it left in the caches.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Scaled times read as wall times on a host where the kernel's timed pass
# takes this long.  On the 2-vCPU Xeon VM the baseline was recorded on
# (Python 3.11.7, numpy 2.4.6) it took 0.6-1.2 ms, depending on the hour.
REFERENCE_S = 0.001
WINDOW = 10  # an op is scaled by the median kernel time of the 2*WINDOW+1 nearest samples


def _pivots() -> None:
    a = np.arange(400.0).reshape(20, 20)
    for _ in range(60):
        t = np.zeros((21, 41))
        t[:20, :20] = a
        t[:20, 20:40] = np.eye(20)
        col = int(np.argmin(t[0, :40]))
        t -= np.outer(t[:, col], t[3])
        np.nonzero(t[:, 0] < 0)


def kernel() -> float:
    """Run the reference kernel; returns the wall time of its second, warm pass.

    The first pass refills the caches the preceding op evicted, so the
    time taken does not depend on what the op touched.
    """
    _pivots()
    t0 = perf_counter()
    _pivots()
    return perf_counter() - t0


def kernel_median(samples: int) -> float:
    """Median kernel time over a few samples, after one warm-up run."""
    kernel()
    return statistics.median(kernel() for _ in range(samples))


def scaled(times: list[float], kernel_times: list[float]) -> list[float]:
    """Each times[i] scaled to the reference host by the kernel times around it.

    kernel_times[i] is the kernel run right after op i; op i is scaled
    by REFERENCE_S over the median of kernel_times[i - WINDOW : i + WINDOW + 1].
    """
    n = len(times)
    out = []
    for i, t in enumerate(times):
        near = kernel_times[max(0, i - WINDOW):min(n, i + WINDOW + 1)]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
