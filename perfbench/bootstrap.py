"""Process set-up shared by the benchmark's entry points.

``setup()`` pins the BLAS thread count and puts the checkout's ``src``
directory on ``sys.path``; call it before numpy or mrpdiff is imported. The
program is pure Python over numpy, so running it from source is its build.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DATA_DIR = os.path.join(BENCH_DIR, "data")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The matrices are at most 128 x 256, where a second BLAS thread buys nothing
# and adds run-to-run noise; one thread is also within any nproc.
BLAS_THREADS = 1


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def setup() -> None:
    """Pin BLAS threads and make ``mrpdiff`` importable from the checkout.

    Exits with status 1 when the checkout holds no ``src/mrpdiff``.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isdir(os.path.join(SRC, "mrpdiff")):
        raise SystemExit(f"error: mrpdiff sources not found under {SRC}")
    for path in (SRC, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
