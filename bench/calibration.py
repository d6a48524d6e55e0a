"""A fixed reference loop that measures how fast the host runs at this moment.

On a shared host the speed of one core drifts by up to 2x over minutes, in
much the same way for interpreter, numpy and LAPACK work. `run_cal`, the time
of a workload iteration over the mean time of this loop just before and just
after it, cancels most of that drift. The loop mixes the same kinds of work as
the workloads: small SVDs, matrix products and Python arithmetic. It never
calls the package, so no change to the package can move it.
"""

from __future__ import annotations

import time

import numpy as np

LOOPS = 400  # 14 to 25 ms on one core of a 2 GHz Xeon (Sapphire Rapids) KVM guest
_MATRIX = np.random.default_rng(0).standard_normal((16, 8))


def seconds() -> float:
    """Wall seconds of one pass of the reference loop."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(LOOPS):
        u, s, vt = np.linalg.svd(_MATRIX, full_matrices=False)
        total += float(s.sum()) + float((u @ vt).sum()) + sum(i * 0.5 for i in range(100))
    return time.perf_counter() - t0
