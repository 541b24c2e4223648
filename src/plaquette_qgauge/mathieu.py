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
solved afresh for that request: nothing is kept between calls, so a sweep
shares an eigensystem by asking for all its levels at one q in one array
request.  Every eigensolve goes through
``eigh_tridiagonal``, which calls LAPACK's tridiagonal routines in scipy's
wrapper extension without importing ``scipy.linalg`` (see its docstring):

* up to 512 rows (``_FULL_MAX``), the full eigendecomposition (``dstevd``),
  of which exactly the levels up to the highest one asked for are kept:
  LAPACK's eigenvector matrix (at most 2 MB) lives only during the call;
  that covers the start for levels up to 40 at q up to about 3.7e6
  (nu_tilde about 9e5);
* above 512 rows, by bisection and inverse iteration, in fixed blocks of
  16 levels, [0, 16), [16, 32), ...: only the blocks that hold the
  requested levels, so memory and work grow with those blocks, not with
  the square of the truncation or with the highest level's index.

That layout, the full span [0, top + 1) or the 16-level blocks that hold
the requested levels, is chosen in ``_eigensystem`` alone.  It returns
exactly the requested levels, in request order, as two arrays of their own:
the characteristic values, and a read-only, C-contiguous (levels, trunc)
block of unit-normalized, sign-anchored coefficients that holds no other
rows.  Each span is solved, its levels checked (``recurrence_residual`` of
the whole span), and the requested rows
normalized and anchored row by row and written to their positions.  A full
solve's levels come from the whole decomposition and the blocks are fixed
by the truncation, so a level's bits depend on (q, trunc, n) alone: results
do not depend on which other levels a request asks for, or on earlier
calls.

``solve`` takes one level or an integer array of levels, and one rule sets
the truncation: it starts at ``trunc`` or, without one, at ``default_trunc``
of the highest level, and doubles until the tails of all requested levels
fall below 1e-12.  ``default_trunc`` follows the decay of the coefficients:
at large q the low levels are oscillator states in the well at the wall,
spread over k up to about sqrt(2n+1) q^(1/4) (DLMF 28.8(i)), and the levels
above the barrier sit near k = n.  Its constants are fitted by
scripts/fit_truncation.py, so that on the scanned levels and q the start
already holds every tail below 1e-12.  The solve refuses a |q| past 6.8e10
(nu_tilde = q / 4 of 1.7e10), the edge of the valid domain, before anything
else, and gives up past 32 times the start or, before allocating, past
``MAX_ROWS`` rows (2**19, set in ``errors``).  A solve returns arrays
alone, as a ``MathieuLevels`` record ``(b, coeffs)``: an array of levels
gives the b array and the block rows, one level the float b and its 1-D
row.  The caller knows n and q, since it passed them; the truncation is
``coeffs.shape[-1]`` and the tail
``abs(coeffs[..., -1])``.  ``se`` evaluates the sine-elliptic functions of
one level or of an array of levels from one solve,
``se_second_derivative`` takes a coefficient row, and
``recurrence_residual`` a row or a block of them.
``solve_many(count, ...)`` is ``solve(range(count), ...)``; it stays a
separate name only because the benchmark's call contract
(``EXPECTED_CALLS`` in perfbench/workloads.py) counts it on the projector
sweep.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np

from .characters import sine_series
from .errors import MAX_ROWS, ConvergenceError

#: residual threshold, relative to the matrix norm, past which the
#: eigendecomposition is rejected
_RESIDUAL_RTOL = 1e-13
#: tail coefficients above this trigger truncation growth
_TAIL_TOL = 1e-12
#: truncation growth gives up past 2**_MAX_DOUBLINGS times the default truncation
_MAX_DOUBLINGS = 5
#: constants of ``default_trunc``, fitted by scripts/fit_truncation.py: the
#: well branch (alpha, beta, gamma), the near-free branch (a, b), and the
#: level the well branch is sized for at least, so that requests topping
#: out at or below it get one truncation
_WELL = (2.77, 0.97, 4)
_FREE = (5, 4.8)
_SHARED_LEVELS = 40
#: truncations up to this size are diagonalized in full (an eigenvector
#: matrix of at most 2 MB, kept only for the call); larger ones compute only
#: the levels asked for
_FULL_MAX = 512
#: levels per eigensolve above ``_FULL_MAX`` rows: a partial eigensystem
#: solves those of the blocks [0, 16), [16, 32), ... that a request reads
_LEVEL_BLOCK = 16
#: no |q| past this is solved (nu_tilde = q / 4 of 1.7e10): there E_gap, the
#: difference of two energies near nu_tilde / 2, keeps only about 11 digits
_MAX_Q = 6.8e10

#: module name of scipy's LAPACK wrapper extension, which the first
#: eigensolve loads
_FLAPACK = "scipy.linalg._flapack"


class MathieuLevels(NamedTuple):
    """Characteristic values ``b`` and Fourier coefficients ``coeffs`` of levels at one q.

    ``coeffs[..., k]`` is the coefficient of sin((2k+2) y), unit-normalized
    and sign-anchored as described in the module docstring.  For an array
    of levels, ``b`` is a read-only array and ``coeffs`` a read-only,
    C-contiguous (levels, trunc) array, both in request order and holding
    the requested levels alone; for one level, ``b`` is a float and
    ``coeffs`` the read-only row of such a one-level array.
    """

    b: float | np.ndarray
    coeffs: np.ndarray


@lru_cache(maxsize=None)
def _flapack():
    """scipy's LAPACK wrapper extension ``linalg/_flapack``, loaded without ``scipy.linalg``.

    Importing ``scipy.linalg`` costs about 0.25 s.  The extension is found
    in the ``linalg`` directory of the installed package and loaded on its
    own, about 5 ms.  On POSIX the package's directory comes from its import
    spec, so ``scipy/__init__`` does not run; on Windows the package is
    imported, because its ``__init__`` puts ``scipy.libs`` on the DLL search
    path that the extension needs.  A process that has imported
    ``scipy.linalg`` already holds the extension, and that module is reused.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        if os.name == "nt":
            import scipy

            root = scipy.__path__[0]
        else:
            root = find_spec("scipy").submodule_search_locations[0]
        linalg = os.path.join(root, "linalg")
        spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        # loading enters it in sys.modules without its package; taken out
        # again, a later import of scipy.linalg binds it there as usual
        sys.modules.pop(_FLAPACK, None)
    return module


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, select_range=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a symmetric tridiagonal matrix.

    ``d`` is the float64 diagonal and ``e`` the off-diagonal.  Without
    ``select_range`` it solves all levels with LAPACK ``dstevd``; with
    ``(lo, hi)`` only levels lo..hi, by bisection (``dstebz``, whose tiny
    tolerance makes it converge to relative, not eps * |T|, accuracy, so the
    low levels stay exact at an oversize truncation) and inverse iteration
    (``dstein``).  These are the calls ``scipy.linalg.eigh_tridiagonal``
    makes, without and with ``select="i", tol=tiny``, down to its quick
    exit for one row, so the results are its bits.  A nonzero LAPACK
    ``info`` raises ``ConvergenceError``.

    The name and the positional (d, e) follow scipy's function on purpose:
    the benchmark's tracer (perfbench/tracer.py) counts both under the key
    ``mathieu.eigh_tridiagonal`` and reads the size and q from (d, e), so
    every eigensolve, full or block, is counted once.
    """
    if len(d) == 1:
        return np.array([d[0]]), np.array([[1.0]])
    lapack = _flapack()
    if select_range is None:
        w, v, info = lapack.dstevd(d, e, compute_v=1)
    else:
        lo, hi = select_range
        tiny = np.finfo(float).tiny
        m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, tiny, "B")
        if not info:
            v, info = lapack.dstein(d, e, w[:m], iblock, isplit)
            order = np.argsort(w[:m])
            w, v = w[order], v[:, order]
    if info:
        raise ConvergenceError(f"LAPACK tridiagonal eigensolve failed: info={info} ({len(d)} rows)")
    return w, v


def default_trunc(n: int, q: float) -> int:
    """Starting truncation for levels up to n at parameter q (coefficient tails < 1e-12).

    The larger of two branches, in r = |q|^(1/4):

    * well states, ceil((alpha + beta sqrt(2m + 1)) r) + gamma with
      m = max(n, 40): at large q the low levels are oscillator states whose
      coefficients spread over k up to about sqrt(2n+1) r (DLMF 28.8(i)).
      Sizing it for level 40 at least gives every request whose top level
      is at most 40 at one q the same truncation, from q of about 1,400
      up, where this is the larger branch for them, so a level's bits do
      not depend on which other levels are asked for.
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


def _eigensystem(q: float, trunc: int, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic values and coefficient rows of levels ``n`` at (q, trunc), in request order.

    The one place that knows the solve's layout.  A truncation up to
    ``_FULL_MAX`` is diagonalized in full, as one span of levels
    [0, top + 1), ``top`` the highest level in ``n``.  A larger one is
    solved in the spans [16g, 16g + 16) of ``_LEVEL_BLOCK`` levels, one
    bisection call for each block g that holds a requested level, so memory
    stays O(trunc * levels solved).  Each span is one ``eigh_tridiagonal``
    call: it is solved, the residuals of all its levels are checked, and the
    requested rows are normalized, sign-anchored (see the module docstring)
    and written to their positions in two arrays allocated here at
    ``len(n)`` rows and frozen once.  Normalization and anchor work row by
    row, and the blocks are fixed by the truncation, so a level's bits
    depend on (q, trunc, n) alone.
    """
    freqs = 2.0 * np.arange(trunc) + 2.0
    d = freqs**2
    alternating = (-1.0) ** np.arange(trunc)
    # (-1)^k (2k+2); the dot product with c is -se'(-pi/2)
    wall_slope = freqs * alternating
    off = np.full(trunc - 1, q)
    scale = max(1.0, float(d[-1]) + 2.0 * abs(q))
    full = trunc <= _FULL_MAX
    # the layout: one span [0, top + 1) for a full solve, else each block
    # [16g, 16g + 16) that holds a requested level
    starts = [0] if full else sorted(set((n - n % _LEVEL_BLOCK).tolist()))
    values, block = np.empty(len(n)), np.empty((len(n), trunc))
    for start in starts:
        end = int(n.max()) + 1 if full else min(start + _LEVEL_BLOCK, trunc)
        # the requested levels in the span; a full span holds them all
        at = slice(None) if full else np.flatnonzero((n >= start) & (n < end))
        w, v = eigh_tridiagonal(d, off, None if full else (start, end - 1))
        # a full solve returns every level; only those up to the top are kept
        w, v = w[: end - start], v[:, : end - start]
        residual = recurrence_residual(w, q, v.T)
        if residual > _RESIDUAL_RTOL * scale:
            raise ConvergenceError(
                f"tridiagonal eigensolve residual {residual:.3e} exceeds "
                f"{_RESIDUAL_RTOL:.0e} * {scale:.3e} (q={q}, trunc={trunc})"
            )
        levels = n[at]
        kept = levels - start
        # C-ordered rows, so each sum below runs along one row as it would
        # for that level alone
        rows = np.ascontiguousarray(v.T[kept])
        # the anchor's sign does not depend on the row's positive scale, and
        # an elementwise sum, unlike a BLAS product, not on the thread count
        flip = alternating[levels] * (rows * wall_slope).sum(axis=1) < 0
        # an elementwise sum, not a BLAS dot product, whose split across
        # threads would change the bits; dividing by -norm negates that
        # quotient exactly
        norms = np.sqrt((rows * rows).sum(axis=1))
        rows /= np.where(flip, -norms, norms)[:, None]
        values[at], block[at] = w[kept], rows
    for array in (values, block):
        array.flags.writeable = False
    return values, block


def _converged(q: float, trunc: int | None, n: np.ndarray) -> MathieuLevels:
    """Levels ``n`` (a 1-D integer array) at q, with tails below ``_TAIL_TOL``.

    A |q| past ``_MAX_Q`` is refused first.  The truncation starts at
    ``trunc`` rows (``default_trunc`` of the highest level if None), which
    must hold that level, and doubles until the tails fall.  It gives up
    past 2**_MAX_DOUBLINGS times the default truncation, so a small explicit
    start grows as far as the default one.  A size past ``MAX_ROWS`` is
    refused before anything is allocated.
    """
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if abs(q) > _MAX_Q:
        raise ConvergenceError(
            f"q={q} is past the domain edge |q| <= {_MAX_Q:g} (nu_tilde <= {_MAX_Q / 4:g})"
        )
    bottom, top = int(n.min()), int(n.max())
    default = default_trunc(top, q)
    size = default if trunc is None else trunc
    if size <= top:
        raise ValueError(f"trunc={size} cannot hold level n={top}")
    while True:
        if size > MAX_ROWS:
            raise ConvergenceError(f"levels {bottom}..{top} at q={q} need over {MAX_ROWS} rows")
        values, block = _eigensystem(q, size, n)
        if np.abs(block[:, -1]).max() <= _TAIL_TOL:
            return MathieuLevels(values, block)
        size *= 2
        if size > 2**_MAX_DOUBLINGS * default:
            raise ConvergenceError(
                f"coefficient tail did not fall below {_TAIL_TOL} (levels {bottom}..{top}, q={q})"
            )


def solve(n, q: float, trunc: int | None = None) -> MathieuLevels:
    """Characteristic values and Fourier coefficients of level(s) n at parameter q.

    ``n`` is one level or a non-empty 1-D integer array of levels (a range
    will do).  All of them come from one eigensystem, whose truncation
    starts at ``trunc`` (or ``default_trunc`` of the highest level) and
    doubles until every requested tail coefficient drops below 1e-12.  One
    level gives a float and a 1-D row, an array of levels a ``b`` array and
    a (levels, trunc) block (see ``MathieuLevels``).  Nothing is kept
    between calls.
    """
    levels = np.asarray(n)
    if levels.dtype.kind not in "iu" or levels.ndim > 1 or levels.size == 0:
        raise TypeError(f"levels must be an integer or a non-empty 1-D integer array, got {n!r}")
    if levels.min() < 0:
        raise ValueError(f"level index must be >= 0, got {levels.min()}")
    b, coeffs = _converged(q, trunc, levels.reshape(-1))
    return MathieuLevels(float(b[0]), coeffs[0]) if levels.ndim == 0 else MathieuLevels(b, coeffs)


def solve_many(count: int, q: float, trunc: int | None = None) -> MathieuLevels:
    """Levels 0..count-1 at parameter q: ``solve(range(count), q, trunc)``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return solve(range(count), q, trunc)


def se(n, q: float, y):
    """Sine-elliptic function of level(s) n at parameter q, evaluated at y (scalar or array).

    One level gives the values at y; an integer array of levels gives one
    row per level, all from one solve.
    """
    coeffs = solve(n, q).coeffs
    # sin((2k+2) y) is sin((k+1) x) at x = 2y; doubling is exact, so the walls
    # y = -pi/2 and 0 are x = -pi and 0, where sine_series is exactly 0
    x = 2.0 * np.asarray(y, dtype=float)
    if coeffs.ndim == 1:
        return sine_series(x, coeffs)
    return np.array([sine_series(x, row) for row in coeffs])


def se_second_derivative(coeffs: np.ndarray, y):
    """Term-by-term second derivative, at y, of the sine series with coefficients ``coeffs``."""
    freqs = 2.0 * np.arange(len(coeffs)) + 2.0
    # negating the sum is exact, so this equals summing the negated terms
    return -sine_series(2.0 * np.asarray(y, dtype=float), freqs * freqs * coeffs)


def recurrence_residual(b, q: float, coeffs: np.ndarray) -> float:
    """max_k |(b - 4(k+1)^2) c_k - q (c_{k-1} + c_{k+1})| with c_{-1} = c_trunc = 0.

    ``coeffs`` is one row with its value ``b``, or a (levels, trunc) block
    with one ``b`` per row; the maximum runs over every row.
    """
    k = np.arange(coeffs.shape[-1])
    residual = (np.asarray(b)[..., None] - 4.0 * (k + 1.0) ** 2) * coeffs
    residual[..., 1:] -= q * coeffs[..., :-1]
    residual[..., :-1] -= q * coeffs[..., 1:]
    return float(np.abs(residual).max())
