"""Odd pi-periodic Mathieu eigenproblem: characteristic values and sine-elliptic functions.

For f'' + (a - 2q cos 2y) f = 0 with f(-pi/2) = f(0) = 0, the admissible
characteristic values form an increasing sequence a = b(n, q), n = 0, 1, ...
The solution for level n expands as

    se_n(y; q) = sum_k c_k sin((2k+2) y),      k = 0, 1, ...

and inserting the expansion into the equation gives the three-term recurrence

    (a - 4) c_0         = q c_1
    (a - 4(k+1)^2) c_k  = q (c_{k-1} + c_{k+1}),   k >= 1,

i.e. c is an eigenvector of the symmetric tridiagonal matrix with diagonal
(2k+2)^2 and constant off-diagonal q.  That matrix is the exact Galerkin
representation of the problem in the sine basis; the tail of c decays
super-exponentially past k ~ sqrt(2n+1) q^(1/4) for the low levels at large
q, and past k ~ n for the levels above the barrier, so a modest truncation
is exact to machine precision.

Conventions: sum c_k^2 = 1, and the sign is anchored to the q = 0 limit where
c = e_n exactly: (-1)^(n+1) se'(-pi/2) = sum_k (-1)^(n+k) (2k+2) c_k is kept
positive.  It equals 2n + 2 at q = 0 and never vanishes, because a Dirichlet
eigenfunction cannot have f = f' = 0 at the wall; at large q, where the
levels localize at the wall y = -pi/2, it is the dominant quantity, so
each level's sign is continuous in q.

Solve path: a request for a set of levels at q is served by one
eigensystem, the eigendecomposition of the truncated matrix at one size,
kept in a small LRU cache.  Each eigensolve goes through one of three
entries, chosen by the size and by what the process has already paid:

* up to 128 rows (``_DENSE_MAX``), the full eigendecomposition by
  ``eigh_tridiagonal``, numpy's dense ``eigh``.  It gives the same bits as
  scipy's tridiagonal solver (see its docstring) and needs no scipy, whose
  import costs as much as a few hundred solves' worth of the dense path's
  extra time.  That covers the start for levels up to 40 at q up to about
  1.35e4 (nu_tilde about 3,400).  A process takes this entry only while
  ``scipy.linalg`` is not loaded and its dense solves so far are cheaper
  than that import (``_DENSE_BUDGET``); past either, scipy's entry is the
  cheaper one, so a process loses at most about one import's time against
  scipy alone, however many solves it makes;
* otherwise up to 512 rows (``_FULL_MAX``), the full eigendecomposition by
  ``scipy.linalg.eigh_tridiagonal`` (LAPACK ``dstevd``), since the dense
  work grows with the cube of the size; that covers the start for levels
  up to 40 at q up to about 3.7e6 (nu_tilde about 9e5);
* above 512 rows, only the lowest levels, by scipy's bisection and inverse
  iteration, 16 at first and more on demand, so memory grows with the
  levels used, not with the square of the truncation.

scipy is imported by the first solve that does not take the dense entry.
The eigensystem holds its levels as arrays: the characteristic values, and
a read-only, C-contiguous (levels, trunc) block of unit-normalized,
sign-anchored coefficients with their tails.  The block is filled lazily,
in one array pass up to the highest level a request asks for; a later pass
at least doubles it.

``solve`` takes one level or an integer array of levels, and one rule sets
the truncation: it starts at ``trunc`` or, without one, at ``default_trunc``
of the highest level, and doubles until the tails of all requested levels
fall below 1e-12.  ``default_trunc`` follows the decay of the coefficients:
at large q the low levels are oscillator states in the well at the wall,
spread over k up to about sqrt(2n+1) q^(1/4) (DLMF 28.8(i)), and the levels
above the barrier sit near k = n.  Its constants are fitted by
scripts/fit_truncation.py, so that on the scanned levels and q the start
already holds every tail below 1e-12.  The solve gives up past 32 times the
start or, before allocating, past ``_MAX_ROWS`` rows or past |q| = 6.8e10
(nu_tilde = q / 4 of 1.7e10), the edge of the valid domain.  One level comes
back as a memoized ``MathieuSolution`` whose coefficients are a row of the
block; an array of levels as ``MathieuLevels``, which holds the b and tail
arrays and the block rows and gives the same per-level solutions on
indexing.  ``solve_many(count, ...)`` is ``solve(range(count), ...)``; it
stays a separate name only because the benchmark's call contract
(``EXPECTED_CALLS`` in perfbench/workloads.py) counts it on the projector
sweep.  Because the cache is small, a sweep should iterate q-major: all
levels (and all other parameters) at one q before the next q.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import sine_series
from .errors import ConvergenceError

#: residual threshold, relative to the matrix norm, past which the
#: eigendecomposition is rejected
_RESIDUAL_RTOL = 1e-13
#: tail coefficients above this trigger truncation growth
_TAIL_TOL = 1e-12
#: truncation growth gives up past 2**_MAX_DOUBLINGS times the default truncation
_MAX_DOUBLINGS = 5
#: constants of ``default_trunc``, fitted by scripts/fit_truncation.py: the
#: well branch (alpha, beta, gamma), the near-free branch (a, b), and the
#: level the well branch is sized for at least
_WELL = (2.77, 0.97, 4)
_FREE = (5, 4.8)
_SHARED_LEVELS = 40
#: full eigendecompositions up to this size may use numpy's dense ``eigh``
#: (``eigh_tridiagonal``), which needs no scipy, larger ones scipy's
#: tridiagonal ``dstevd``.  The dense work is cubic: median ms per solve,
#: dense / scipy, at q = 1e4 from scripts/time_eigensolve.py (2-core x86,
#: one BLAS thread):
#:
#:   rows     32           64           128          256          512
#:   ms   0.117/0.127  0.566/0.362  1.904/1.018  6.913/2.506  36.11/7.032
#:
#: Up to 128 rows the dense path costs under 1 ms more per solve, about
#: twice scipy's time (3x at q = 1e2, where only levels near 100 start that
#: large).  Past it the extra grows to 29 ms per solve at 512 rows: with
#: dense solves up to 512 rows, ``spectrum --nu-tilde 1e4:9e5:100 --n-max
#: 40`` took 2.93 s in-process against 1.85 s, which is why scipy's full
#: solve keeps 129 to 512 rows.  No benchmark workload solves past 113
#: rows, so this bound is checked end to end only by such off-benchmark
#: runs, until a workload past it exists.
_DENSE_MAX = 128
#: a process stops taking the dense path once its dense solves' rows**2 sum
#: past this.  The dense extra time grows about as rows**2, 45 to 52 ns
#: times it from 64 to 128 rows, and importing scipy.linalg after the
#: package takes 0.24 to 0.25 s, as long as dense solves summing to 4.9e6 to
#: 5.4e6 rows**2, about 500 solves of 100 rows (two runs of
#: scripts/time_eigensolve.py on the host above).  A process below that sum
#: saves part of the import; a longer one pays the dense extra up to it and
#: then the import, once, so it loses at most about one import's time
#: against scipy alone, where with no bound its loss would grow with every
#: solve past the break-even
_DENSE_BUDGET = 5_000_000
#: truncations up to this size are diagonalized in full (an eigenvector
#: matrix of at most 2 MB); larger ones compute only the levels asked for
_FULL_MAX = 512
#: levels a partial eigensystem computes first
_LEVEL_BLOCK = 16
#: eigensystems kept; a q-major sweep needs only the current q's entries
_CACHE_SIZE = 8
#: no truncation past this many rows is tried, explicit or grown
_MAX_ROWS = 2**19
#: no |q| past this is solved (nu_tilde = q / 4 of 1.7e10): there E_gap, the
#: difference of two energies near nu_tilde / 2, keeps only about 11 digits
_MAX_Q = 6.8e10

#: rows**2 summed over the dense solves this process made
_dense_spent = 0


@dataclass(frozen=True)
class MathieuSolution:
    """Level ``n`` solution at parameter ``q``.

    ``b`` is the characteristic value; ``coeffs[k]`` is the Fourier
    coefficient of sin((2k+2) y), unit-normalized and sign-anchored as
    described in the module docstring, a read-only row of its eigensystem's
    coefficient block.
    """

    n: int
    q: float
    b: float
    coeffs: np.ndarray

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    @property
    def tail(self) -> float:
        """Magnitude of the last kept coefficient (truncation diagnostic)."""
        return abs(float(self.coeffs[-1]))

    def se(self, y):
        """Evaluate the sine-elliptic function at y (scalar or array)."""
        # (k+1) * (2y) rounds exactly as (2k+2) * y: doubling is exact
        return sine_series(2.0 * np.asarray(y, dtype=float), self.coeffs)

    def se_second_derivative(self, y):
        """Term-by-term second derivative of ``se`` (spectral differentiation)."""
        freqs = 2.0 * np.arange(self.trunc) + 2.0
        # negating the sum is exact, so this equals summing the negated terms
        return -sine_series(2.0 * np.asarray(y, dtype=float), freqs * freqs * self.coeffs)

    def recurrence_residual(self) -> float:
        """max_k |(b - 4(k+1)^2) c_k - q (c_{k-1} + c_{k+1})| with c_{-1} = c_trunc = 0."""
        c = self.coeffs
        k = np.arange(self.trunc)
        left = (self.b - 4.0 * (k + 1.0) ** 2) * c
        neighbors = np.zeros_like(c)
        neighbors[1:] += c[:-1]
        neighbors[:-1] += c[1:]
        return float(np.max(np.abs(left - self.q * neighbors)))


class MathieuLevels:
    """Levels ``n`` (an integer array) at parameter ``q``, read from one eigensystem.

    ``b[i]`` and ``tail[i]`` are the characteristic value and the tail
    coefficient magnitude of level ``n[i]``, and ``coeffs[i]`` is its row of
    the eigensystem's coefficient block: a read-only view when ``n`` is a run
    of consecutive levels, a read-only copy otherwise.  Indexing and
    iteration give the memoized per-level ``MathieuSolution``s.
    """

    def __init__(self, system: _Eigensystem, n: np.ndarray):
        lo, hi = int(n[0]), int(n[-1]) + 1
        consecutive = hi - lo == len(n) and (len(n) == 1 or bool(np.all(n[1:] > n[:-1])))
        rows = slice(lo, hi) if consecutive else n
        self._system = system
        self.n = n.copy()
        self.b = system.values[rows]
        self.tail = system.tails[rows]
        self.coeffs = system.block[rows]
        for array in (self.n, self.b, self.tail, self.coeffs):
            array.flags.writeable = False

    @property
    def trunc(self) -> int:
        return self.coeffs.shape[1]

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i: int) -> MathieuSolution:
        return self._system.level(int(self.n[i]))

    def __iter__(self):
        return (self._system.level(int(n)) for n in self.n)


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a symmetric tridiagonal matrix.

    ``d`` is the diagonal and ``e`` the off-diagonal.  The matrix is built
    dense and handed to numpy's ``eigh`` (LAPACK ``dsyevd``).  Its
    Householder reduction of an input that is already tridiagonal makes
    zero reflectors, so the divide and conquer runs on the same (d, e) as
    scipy's ``eigh_tridiagonal`` (``dstevd``), and the results agree bit
    for bit up to the sign of each column.  The dense work is cubic, so
    ``_Eigensystem`` takes this path up to ``_DENSE_MAX`` rows only, and
    only as ``_dense_path`` allows.

    The name and the positional (d, e) follow scipy's function on purpose:
    the benchmark's tracer (perfbench/tracer.py) counts scipy's solver under
    the key ``mathieu.eigh_tridiagonal``, and wrapping this public function
    under its own name puts it on that same key, so every eigensolve is
    counted once whichever entry makes it.  The key's time therefore sums
    two algorithms.
    """
    n = len(d)
    matrix = np.zeros((n, n))
    matrix.flat[:: n + 1] = d
    # the sub-diagonal, the triangle eigh reads by default
    matrix.flat[n :: n + 1] = e
    return np.linalg.eigh(matrix)


def _dense_path(trunc: int) -> bool:
    """Whether a full solve of ``trunc`` rows goes through ``eigh_tridiagonal``.

    Only up to ``_DENSE_MAX`` rows, and only while the process has not
    loaded scipy.linalg, whose tridiagonal solver is then the cheaper one,
    and its dense solves so far stay within ``_DENSE_BUDGET``.  A solve that
    takes the dense path is charged to the budget.  Either entry gives the
    same bits, so the path does not change results.
    """
    global _dense_spent
    if trunc > _DENSE_MAX or _dense_spent >= _DENSE_BUDGET or "scipy.linalg" in sys.modules:
        return False
    _dense_spent += trunc * trunc
    return True


def default_trunc(n: int, q: float) -> int:
    """Starting truncation for levels up to n at parameter q (coefficient tails < 1e-12).

    The larger of two branches, in r = |q|^(1/4):

    * well states, ceil((alpha + beta sqrt(2m + 1)) r) + gamma with
      m = max(n, 40): at large q the low levels are oscillator states whose
      coefficients spread over k up to about sqrt(2n+1) r (DLMF 28.8(i)).
      Sizing it for level 40 at least lets every request for levels up to
      40 at one q share one eigensystem, whichever level comes first,
      from q of about 1,400 up, where this is the larger branch for them.
    * near-free levels, n + a + ceil(b r): levels above the barrier sit near
      k = n, and their tail past it widens with q.

    The constants are fitted by scripts/fit_truncation.py.  It depends on
    (n, q) alone, so results do not depend on the order of requests.
    """
    r = abs(q) ** 0.25
    alpha, beta, gamma = _WELL
    a, b = _FREE
    well = math.ceil((alpha + beta * math.sqrt(2 * max(n, _SHARED_LEVELS) + 1)) * r) + gamma
    return max(well, n + a + math.ceil(b * r))


class _Eigensystem:
    """The lowest levels at (q, trunc) from one tridiagonal eigensolve.

    A truncation up to ``_FULL_MAX`` is diagonalized in full on
    construction, by ``eigh_tridiagonal`` where ``_dense_path`` allows it
    and by scipy otherwise.  A larger one computes only its lowest
    ``_LEVEL_BLOCK`` levels, and a request past them computes the missing
    ones in one more call, at least doubling the count, so memory stays
    O(trunc * levels used).  Residuals of new eigenpairs are checked once, as they are
    computed.

    The eigenvectors are stored as rows.  ``fill(count)`` normalizes and
    sign-anchors (see the module docstring) rows up to ``count`` in place,
    in one array pass, and exposes them as the read-only ``block`` with
    their ``tails``; rows past it stay raw until asked for.  ``level(n)``
    memoizes a ``MathieuSolution`` on row n, so repeated requests return
    the same object.
    """

    def __init__(self, q: float, trunc: int):
        self.q = q
        freqs = 2.0 * np.arange(trunc) + 2.0
        self.diag = freqs**2
        self._alternating = (-1.0) ** np.arange(trunc)
        # (-1)^k (2k+2); the dot product with c is -se'(-pi/2)
        self._wall_slope = freqs * self._alternating
        self.values = np.empty(0)
        self._rows = np.empty((0, trunc))
        self.block = self._rows
        self.tails = np.empty(0)
        self._levels: dict[int, MathieuSolution] = {}
        self._compute(trunc if trunc <= _FULL_MAX else _LEVEL_BLOCK)

    def _compute(self, count: int) -> None:
        """Add levels len(values)..count-1."""
        d, q = self.diag, self.q
        trunc, start = len(d), len(self.values)
        off = np.full(trunc - 1, q)
        if start == 0 and count == trunc and _dense_path(trunc):
            w, v = eigh_tridiagonal(d, off)
        else:
            # imported here, not at module level: it is most of the package's
            # import time, and only an eigensolve off the dense path needs it
            import scipy.linalg

            if start == 0 and count == trunc:
                w, v = scipy.linalg.eigh_tridiagonal(d, off)
            else:
                # a tiny tol makes bisection converge to relative, not
                # eps * |T|, accuracy: the low levels stay exact at an
                # oversize truncation
                w, v = scipy.linalg.eigh_tridiagonal(
                    d, off, select="i", select_range=(start, count - 1), tol=np.finfo(float).tiny
                )
        tv = d[:, None] * v
        tv[1:] += q * v[:-1]
        tv[:-1] += q * v[1:]
        tv -= v * w
        residual = float(np.max(np.abs(tv)))
        scale = max(1.0, float(d[-1]) + 2.0 * abs(q))
        if residual > _RESIDUAL_RTOL * scale:
            raise ConvergenceError(
                f"tridiagonal eigensolve residual {residual:.3e} exceeds "
                f"{_RESIDUAL_RTOL:.0e} * {scale:.3e} (q={q}, trunc={trunc})"
            )
        # scipy returns LAPACK's Fortran order, so its transpose is
        # C-contiguous already; numpy's eigh returns C order, so the dense
        # path copies once, at most _DENSE_MAX**2 doubles (128 kB)
        rows = np.ascontiguousarray(v.T)
        if start:
            w, rows = np.concatenate([self.values, w]), np.concatenate([self._rows, rows])
        w.flags.writeable = False
        self.values, self._rows = w, rows

    def fill(self, count: int) -> None:
        """Extend ``block`` and ``tails`` to at least the lowest ``count`` levels.

        A fill at least doubles the block, within the levels computed, so
        requests for one level after another take few array passes.
        """
        done = len(self.tails)
        if count <= done:
            return
        if count > len(self.values):
            self._compute(min(len(self.diag), max(count, 2 * len(self.values))))
        count = max(count, min(2 * done, len(self.values)))
        new = self._rows[done:count]
        # the anchor's sign does not depend on the row's positive scale, and
        # an elementwise sum, unlike a BLAS product, not on the thread count
        flip = self._alternating[done:count] * np.sum(new * self._wall_slope, axis=1) < 0
        # an elementwise sum, not a BLAS dot product, whose split across
        # threads would change the bits; dividing by -norm negates that
        # quotient exactly
        norms = np.sqrt(np.sum(new * new, axis=1))
        new /= np.where(flip, -norms, norms)[:, None]
        block = self._rows[:count]
        block.flags.writeable = False
        tails = np.abs(block[:, -1])
        tails.flags.writeable = False
        self.block, self.tails = block, tails

    def level(self, n: int) -> MathieuSolution:
        sol = self._levels.get(n)
        if sol is None:
            self.fill(n + 1)
            sol = MathieuSolution(n=n, q=self.q, b=float(self.values[n]), coeffs=self.block[n])
            self._levels[n] = sol
        return sol

    def levels(self, n: np.ndarray) -> MathieuLevels:
        self.fill(int(n.max()) + 1)
        return MathieuLevels(self, n)


_eigensystem = lru_cache(maxsize=_CACHE_SIZE)(_Eigensystem)


def _converged(q: float, trunc: int | None, levels, top: int) -> _Eigensystem:
    """Eigensystem at q whose ``levels`` (int or int array) have tails below ``_TAIL_TOL``.

    The truncation starts at ``trunc`` rows (``default_trunc`` of the highest
    level ``top`` if None), which must hold that level, and doubles until
    the tails fall.  It gives up past 2**_MAX_DOUBLINGS times the default
    truncation, so a small explicit start grows as far as the default one.
    A size past ``_MAX_ROWS`` and a |q| past ``_MAX_Q`` are refused before
    anything is allocated.
    """
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    default = default_trunc(top, q)
    size = default if trunc is None else trunc
    if size <= top:
        raise ValueError(f"trunc={size} cannot hold level n={top}")
    while True:
        if size > _MAX_ROWS:
            raise ConvergenceError(
                f"levels {np.min(levels)}..{top} at q={q} need over {_MAX_ROWS} rows"
            )
        if abs(q) > _MAX_Q:
            raise ConvergenceError(
                f"q={q} is past the domain edge |q| <= {_MAX_Q:g} (nu_tilde <= {_MAX_Q / 4:g})"
            )
        system = _eigensystem(q, size)
        system.fill(top + 1)
        worst = system.tails[levels]
        if worst.ndim:
            worst = worst.max()
        if worst <= _TAIL_TOL:
            return system
        size *= 2
        if size > 2**_MAX_DOUBLINGS * default:
            raise ConvergenceError(
                f"coefficient tail did not fall below {_TAIL_TOL} "
                f"(levels {np.min(levels)}..{top}, q={q})"
            )


def solve(n, q: float, trunc: int | None = None):
    """Characteristic values and Fourier coefficients of level(s) n at parameter q.

    ``n`` is one level or a non-empty 1-D integer array of levels (a range
    will do).  All of them come from one eigensystem, whose truncation
    starts at ``trunc`` (or ``default_trunc`` of the highest level) and
    doubles until every requested tail coefficient drops below 1e-12.  One
    level gives its ``MathieuSolution``, an array of levels a
    ``MathieuLevels``.
    """
    levels = np.asarray(n)
    if levels.dtype.kind not in "iu" or levels.ndim > 1 or levels.size == 0:
        raise TypeError(f"levels must be an integer or a non-empty 1-D integer array, got {n!r}")
    if levels.ndim == 0:
        bottom = top = int(levels)
    else:
        bottom, top = int(levels.min()), int(levels.max())
    if bottom < 0:
        raise ValueError(f"level index must be >= 0, got {bottom}")
    if levels.ndim == 0:
        return _converged(q, trunc, top, top).level(top)
    return _converged(q, trunc, levels, top).levels(levels)


def solve_many(count: int, q: float, trunc: int | None = None) -> MathieuLevels:
    """Levels 0..count-1 at parameter q: ``solve(range(count), q, trunc)``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return solve(range(count), q, trunc)


def se(n: int, q: float, y):
    """Sine-elliptic function for level n at parameter q, evaluated at y."""
    return solve(n, q).se(y)
