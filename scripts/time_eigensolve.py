#!/usr/bin/env python3
"""Time the two full Mathieu eigensolves per size: numpy's dense ``eigh`` and scipy's ``dstevd``.

``mathieu._Eigensystem`` diagonalizes a truncation of up to
``mathieu._DENSE_MAX`` rows in full with ``mathieu.eigh_tridiagonal``, which
hands the dense matrix to numpy's ``eigh`` (LAPACK ``dsyevd``), and a larger
one, up to ``_FULL_MAX``, with ``scipy.linalg.eigh_tridiagonal`` (``dstevd``).
Both run the same divide and conquer on the same (d, e); the dense entry
adds the cubic Householder reduction and back-transformation, and saves the
import of ``scipy.linalg``.  This script prints the median time of one solve
of the Mathieu tridiagonal (diagonal (2k+2)^2, off-diagonal q) through each
entry, at 32 to 512 rows and q = 1e2, 1e4 and 1e6, with the dense entry's
extra time and ratio.  The two entries alternate within each repeat, so a
drift of the host's speed reaches both.  The import of ``scipy.linalg`` is
done before timing and is not counted there.

It then times that import on its own, in fresh interpreters that have
imported the package, and divides it by the dense entry's extra time per
squared row (its median over the points of 64 to 128 rows, where the extra
grows about as rows**2): the break-even, the summed rows**2 of dense solves
that cost a process as much as the import, which ``mathieu._DENSE_BUDGET``
follows.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/time_eigensolve.py [--repeats 41] [--imports 7]
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

from plaquette_qgauge import mathieu

ROWS = (32, 64, 96, 112, 128, 160, 256, 512)
QS = (1e2, 1e4, 1e6)
IMPORT_TIMER = (
    "import time, plaquette_qgauge.cli\n"
    "start = time.perf_counter()\n"
    "import scipy.linalg\n"
    "print(time.perf_counter() - start)\n"
)


def median_times(rows: int, q: float, repeats: int) -> tuple[float, float]:
    """Median seconds per solve of the dense and the scipy entry."""
    freqs = 2.0 * np.arange(rows) + 2.0
    d, e = freqs * freqs, np.full(rows - 1, q)
    entries = (mathieu.eigh_tridiagonal, scipy.linalg.eigh_tridiagonal)
    times: tuple[list[float], list[float]] = ([], [])
    for entry in entries:  # warm up
        entry(d, e)
    for _ in range(repeats):
        for entry, samples in zip(entries, times):
            start = time.perf_counter()
            entry(d, e)
            samples.append(time.perf_counter() - start)
    return statistics.median(times[0]), statistics.median(times[1])


def median_import_time(repeats: int) -> float:
    """Median seconds of ``import scipy.linalg`` in fresh interpreters that imported the package."""
    times = []
    for _ in range(repeats):
        result = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], capture_output=True, text=True, check=True
        )
        times.append(float(result.stdout))
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=41, help="timed solves per entry and point")
    parser.add_argument("--imports", type=int, default=7, help="timed imports of scipy.linalg")
    args = parser.parse_args()
    print(
        f"_DENSE_MAX = {mathieu._DENSE_MAX}, _FULL_MAX = {mathieu._FULL_MAX}, "
        f"_DENSE_BUDGET = {mathieu._DENSE_BUDGET:.3g} rows**2"
    )
    print(f"{'rows':>5} {'q':>6} {'dense ms':>9} {'scipy ms':>9} {'extra ms':>9} {'ratio':>6}")
    per_square = []
    for rows in ROWS:
        for q in QS:
            dense, tridiagonal = median_times(rows, q, args.repeats)
            print(
                f"{rows:5d} {q:6.0e} {1e3 * dense:9.3f} {1e3 * tridiagonal:9.3f} "
                f"{1e3 * (dense - tridiagonal):+9.3f} {dense / tridiagonal:6.2f}"
            )
            if 64 <= rows <= mathieu._DENSE_MAX:
                per_square.append((dense - tridiagonal) / rows**2)
    extra = statistics.median(per_square)
    imported = median_import_time(args.imports)
    print(f"dense extra per rows**2, 64-{mathieu._DENSE_MAX} rows: {1e9 * extra:.1f} ns")
    print(f"import of scipy.linalg after the package: {imported:.3f} s")
    print(
        f"break-even: dense solves summing to {imported / extra:.3g} rows**2 "
        f"({imported / extra / 100**2:.0f} solves of 100 rows)"
    )


if __name__ == "__main__":
    main()
