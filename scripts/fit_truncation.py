#!/usr/bin/env python3
"""Fit and certify the starting truncation of a Mathieu solve, ``mathieu.default_trunc``.

The scan finds, for each level n and parameter q on its grid, the needed
size: the smallest truncation at which level n's last coefficient is at most
1e-12, the test ``mathieu._converged`` applies.  It bisects over sizes, with
one LAPACK eigenvector of level n per size.

The fit chooses the constants of the start's two branches (see
``default_trunc``):

    well = ceil((alpha + beta sqrt(2 max(n, 40) + 1)) q^(1/4)) + gamma
    free = n + a + ceil(b q^(1/4))

so that max(well, free) is at least the needed size plus ``MARGIN`` rows at
every scanned point, with the smallest mean ratio start / needed over the
levels from 40 up.  beta, gamma and b run over a grid; alpha and a are the
smallest values that cover the points, taken in turn.

The check certifies the constants committed in ``mathieu``:

* at every scanned point, the start holds the tails of all levels up to n at
  or below 1e-12 through the package's own solve, so growth never fires;
* for levels from 40 up, the start is at most 1.3 times the needed size
  wherever that is at least 64 rows.  A level below 40 starts no higher than
  level 40 at the same q, so the bound for level 40 covers it.

Cut: a point whose block of n + 1 levels would exceed ``BLOCK_MAX``
coefficients (level 960 from q of about 1e4 up, level 480 from about 1e6) is
certified for level n alone, by the LAPACK bisection the package uses past
512 rows.  Lower levels have thinner tails at the same size.

Levels 0, 1, 5, 10, 20, 40, 59, 97, 150, 240, 480 and 960 (960 is the
projector completeness cap), q = 0 and a log grid from 1e-2 to the domain
edge 6.8e10, ``PER_DECADE`` (20) points per decade: the grid that certifies
the committed constants.  It runs in about four minutes on a 2-core x86
host, most of them in the check.

    PYTHONPATH=src python scripts/fit_truncation.py

It exits 1 if the committed constants fail the check.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import scipy.linalg

from plaquette_qgauge import mathieu

LEVELS = (0, 1, 5, 10, 20, 40, 59, 97, 150, 240, 480, 960)
TAIL_TOL = 1e-12
MARGIN = 2
RATIO_MAX = 1.3
RATIO_FROM = 64
#: log-grid points per decade of q
PER_DECADE = 20
#: coefficients of the largest block certified through the package's solve
BLOCK_MAX = 2**20


def q_grid() -> list[float]:
    """q = 0 and a log grid of ``PER_DECADE`` points per decade from 1e-2 to the domain edge."""
    lo, hi = 1e-2, mathieu._MAX_Q
    count = round(PER_DECADE * math.log10(hi / lo)) + 1
    return [0.0, *map(float, np.geomspace(lo, hi, count))]


def level_tail(n: int, q: float, size: int) -> float:
    """|last coefficient| of level n's unit eigenvector at ``size`` rows."""
    freqs = 2.0 * np.arange(size) + 2.0
    _, v = scipy.linalg.eigh_tridiagonal(
        freqs * freqs, np.full(size - 1, q), select="i", select_range=(n, n),
        tol=np.finfo(float).tiny,
    )
    return abs(float(v[-1, 0]))


def needed_size(n: int, q: float, hint: int | None = None) -> int:
    """Smallest truncation at which level n's tail is at most 1e-12 (bisection over sizes)."""
    lo = n + 1
    if level_tail(n, q, lo) <= TAIL_TOL:
        return lo
    hi = max(lo + 1, hint or 2 * lo)
    while level_tail(n, q, hi) > TAIL_TOL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if level_tail(n, q, mid) <= TAIL_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def scan(levels, qs) -> np.ndarray:
    """Rows (n, q, needed size) for every level and q."""
    rows = []
    for n in levels:
        hint = None
        for q in qs:
            hint = needed_size(n, q, hint)
            rows.append((n, q, hint))
    return np.array(rows, dtype=float)


def starts(n, q, well, free) -> np.ndarray:
    """The start of ``default_trunc`` for constants (alpha, beta, gamma) and (a, b)."""
    (alpha, beta, gamma), (a, b) = well, free
    r = np.abs(q) ** 0.25
    m = np.maximum(n, mathieu._SHARED_LEVELS)
    return np.maximum(np.ceil((alpha + beta * np.sqrt(2 * m + 1)) * r) + gamma, n + a + np.ceil(b * r))


def fit(table: np.ndarray):
    """Constants with the smallest mean start / needed over levels >= 40, covering every point."""
    n, q, needed = table.T
    need = needed + MARGIN
    r = q**0.25
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)
    root = np.sqrt(2 * np.maximum(n, mathieu._SHARED_LEVELS) + 1)
    upper = n >= mathieu._SHARED_LEVELS

    def smallest_alpha(mask, beta, gamma):
        # alpha to the hundredth, so the committed constant is short
        if not mask.any():
            return -math.inf
        return math.ceil(100 * np.max((need[mask] - gamma) * inv_r[mask] - beta * root[mask])) / 100

    best = None
    for beta in np.round(np.arange(0.90, 1.051, 0.01), 2):
        for gamma in range(0, 11, 2):
            for b in np.round(np.arange(3.0, 7.01, 0.1), 1):
                # the well branch first covers the levels below the barrier
                # scale (n^2 <= q); then a and alpha cover what the other misses
                alpha = smallest_alpha(n * n <= q, beta, gamma)
                for _ in range(4):
                    well = np.ceil((alpha + beta * root) * r) + gamma
                    missed = well < need
                    a = int(np.max((need - n - np.ceil(b * r))[missed])) if missed.any() else 0
                    uncovered = n + a + np.ceil(b * r) < need
                    alpha, previous = smallest_alpha(uncovered, beta, gamma), alpha
                    if alpha == previous:
                        break
                start = starts(n, q, (alpha, beta, gamma), (a, b))
                if np.any(start < need):
                    continue
                cost = float(np.mean(start[upper] / needed[upper]))
                if best is None or cost < best[0]:
                    best = (cost, (alpha, float(beta), gamma), (a, float(b)))
    return best


def certify(table: np.ndarray) -> list[str]:
    """Problems of the committed start at the scanned points (empty if none)."""
    problems = []
    for n, q, needed in table:
        n, needed = int(n), int(needed)
        start = mathieu.default_trunc(n, q)
        if (n + 1) * start <= BLOCK_MAX:
            coeffs = mathieu.solve(np.arange(n + 1), q).coeffs
            tail = float(np.max(np.abs(coeffs[:, -1]))) if coeffs.shape[1] == start else math.inf
        else:
            tail = level_tail(n, q, start)
        if tail > TAIL_TOL:
            problems.append(f"n={n} q={q!r}: start {start} leaves a tail {tail:.2e} (needed {needed})")
        if n >= mathieu._SHARED_LEVELS and needed >= RATIO_FROM and start > RATIO_MAX * needed:
            problems.append(f"n={n} q={q!r}: start {start} is {start / needed:.3f} x needed {needed}")
    return problems


def main() -> int:
    table = scan(LEVELS, q_grid())
    print(f"scanned {len(table)} points: {len(LEVELS)} levels x {len(table) // len(LEVELS)} q")
    cost, well, free = fit(table)
    print(f"fitted:    well (alpha, beta, gamma) = {well}, free (a, b) = {free}, mean ratio {cost:.4f}")
    committed = starts(table[:, 0], table[:, 1], mathieu._WELL, mathieu._FREE)
    upper = table[:, 0] >= mathieu._SHARED_LEVELS
    ratio = committed / table[:, 2]
    print(
        f"committed: well {mathieu._WELL}, free {mathieu._FREE}, mean ratio "
        f"{np.mean(ratio[upper]):.4f}, worst {np.max(ratio[upper & (table[:, 2] >= RATIO_FROM)]):.4f}"
    )
    cut = int(np.sum((table[:, 0] + 1) * committed > BLOCK_MAX))
    print(f"certifying the committed start ({cut} points for level n alone)")
    problems = certify(table)
    for line in problems:
        print("FAIL", line)
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
