"""Locate the checkout, pin the BLAS thread count and put `src` on the import path.

Every entry point of the benchmark calls `prepare()` before numpy is first
imported: BLAS libraries read their thread count once, at load time.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch space for run artifacts; every run removes its own subdirectory.
SCRATCH = os.path.join(ROOT, ".bench_runs")

# One BLAS thread: the workloads decompose small matrices, and a single thread
# keeps repeated timings on a shared machine steady. It is never above nproc.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_REQUIRED = (
    os.path.join("src", "demuon", "__init__.py"),
    os.path.join("configs", "quickstart.ini"),
    os.path.join("configs", "rate_sweep.ini"),
)


class MissingCheckout(RuntimeError):
    """The benchmark is not inside a checkout that holds the package sources."""


def prepare():
    """Check the checkout, pin BLAS threads and import `demuon` from `src` only."""
    missing = [p for p in _REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise MissingCheckout(f"{ROOT} is not a demuon checkout; missing {', '.join(missing)}")
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import demuon

    if os.path.dirname(os.path.abspath(demuon.__file__)) != os.path.join(SRC, "demuon"):
        raise MissingCheckout(f"demuon was imported from {demuon.__file__}, not from {SRC}")
