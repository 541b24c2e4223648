#!/usr/bin/env python3
"""Time a full Mathieu eigensolve against one 16-level block, per size.

``mathieu._eigensystem`` diagonalizes a truncation of up to
``mathieu._FULL_MAX`` rows in full (LAPACK ``dstevd``) and a larger one in
blocks of ``mathieu._LEVEL_BLOCK`` levels, one bisection and inverse
iteration call each (``dstebz`` and ``dstein``); both go through
``mathieu.eigh_tridiagonal``.  This script prints the median time of one
full solve and of the first block of the Mathieu tridiagonal (diagonal
(2k+2)^2, off-diagonal q) at each size and q, the full solve's eigenvector
matrix in MB, and how many blocks cost as much as one full solve: the
levels a request may ask for before a full solve is the cheaper entry.
The two timed calls alternate within each repeat, so a drift of the host's
speed reaches them alike.  Each median is over ``REPEATS`` (21) timed
solves.  Loading the LAPACK extension is done before timing.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/time_eigensolve.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from plaquette_qgauge import mathieu

ROWS = (128, 256, 512, 768, 1024, 1707, 3000)
QS = (1e4, 2e6, 4e8)
#: timed solves per entry and point
REPEATS = 21


def sample_times(calls, repeats: int) -> list[list[float]]:
    """Seconds of each call per repeat, the calls alternating within each repeat."""
    times: list[list[float]] = [[] for _ in calls]
    for call in calls:  # warm up
        call()
    for _ in range(repeats):
        for call, samples in zip(calls, times):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
    return times


def mathieu_tridiagonal(rows: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (2k+2)^2 and off-diagonal q of the Mathieu tridiagonal."""
    freqs = 2.0 * np.arange(rows) + 2.0
    return freqs * freqs, np.full(rows - 1, q)


def main() -> None:
    print(f"_FULL_MAX = {mathieu._FULL_MAX}, _LEVEL_BLOCK = {mathieu._LEVEL_BLOCK}")
    print(f"{'rows':>5} {'q':>6} {'full ms':>9} {'block ms':>9} {'blocks/full':>11} {'full MB':>8}")
    block = (0, mathieu._LEVEL_BLOCK - 1)
    for rows in ROWS:
        for q in QS:
            d, e = mathieu_tridiagonal(rows, q)
            full, first = map(
                statistics.median,
                sample_times(
                    (lambda: mathieu.eigh_tridiagonal(d, e), lambda: mathieu.eigh_tridiagonal(d, e, block)),
                    REPEATS,
                ),
            )
            print(
                f"{rows:5d} {q:6.0e} {1e3 * full:9.3f} {1e3 * first:9.3f} "
                f"{full / first:11.1f} {8 * rows * rows / 1e6:8.2f}"
            )


if __name__ == "__main__":
    main()
