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
super-exponentially beyond k ~ sqrt(q), so a modest truncation is exact to
machine precision.

Conventions: sum c_k^2 = 1, and the sign is anchored to the q = 0 limit where
c = e_n exactly: (-1)^(n+1) se'(-pi/2) = sum_k (-1)^(n+k) (2k+2) c_k is kept
positive.  It equals 2n + 2 at q = 0 and never vanishes, because a Dirichlet
eigenfunction cannot have f = f' = 0 at the wall; at large q, where the
levels localize at the wall y = -pi/2, it is the dominant quantity, so
each level's sign is continuous in q.

Solve path: every level at one (q, truncation) comes from a single
eigendecomposition of the truncated matrix, kept in a small LRU cache with
its levels built on first use.  Up to 512 rows (the default truncation for
q up to about 61,000) it is the full eigendecomposition; above that only
the lowest levels are computed, 16 at first and more on demand, so memory
grows with the levels used, not with the square of the truncation.
``solve`` and ``solve_many`` share one growth loop that doubles the
truncation until the coefficient tails of the requested levels fall below
1e-12, giving up past 32 times the default truncation or, before
allocating, past ``_MAX_ROWS`` rows (nu_tilde of about 1.7e10 at level 0).
An explicit trunc is the starting size on both entry points and must hold
the highest requested level; without one the start is
``default_trunc(n, q)``, which depends on n only for n > 2 sqrt(q), so all
lower levels share one eigendecomposition.  Because the cache is small, a
sweep should iterate q-major: all levels (and all other parameters) at one
q before the next q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: residual threshold, relative to the matrix norm, past which the
#: eigendecomposition is rejected
_RESIDUAL_RTOL = 1e-13
#: tail coefficients above this trigger truncation growth
_TAIL_TOL = 1e-12
#: truncation growth gives up past 2**_MAX_DOUBLINGS times the default truncation
_MAX_DOUBLINGS = 5
#: truncations up to this size are diagonalized in full (an eigenvector
#: matrix of at most 2 MB); larger ones compute only the levels asked for
_FULL_MAX = 512
#: levels a partial eigensystem computes first
_LEVEL_BLOCK = 16
#: eigensystems kept; a q-major sweep needs only the current q's entries
_CACHE_SIZE = 8
#: no truncation past this many rows is tried; it holds the default
#: truncation up to q of about 6.9e10 (nu_tilde = q / 4 of about 1.7e10)
_MAX_ROWS = 2**19


class ConvergenceError(RuntimeError):
    """Eigensolver residual exceeded the accepted tolerance."""


@dataclass(frozen=True)
class MathieuSolution:
    """Level ``n`` solution at parameter ``q``.

    ``b`` is the characteristic value; ``coeffs[k]`` is the Fourier
    coefficient of sin((2k+2) y), unit-normalized and sign-anchored as
    described in the module docstring.
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
        y = np.asarray(y, dtype=float)
        freqs = 2.0 * np.arange(self.trunc) + 2.0
        out = np.sin(np.multiply.outer(y, freqs)) @ self.coeffs
        return float(out) if out.ndim == 0 else out

    def se_second_derivative(self, y):
        """Term-by-term second derivative of ``se`` (spectral differentiation)."""
        y = np.asarray(y, dtype=float)
        freqs = 2.0 * np.arange(self.trunc) + 2.0
        out = -np.sin(np.multiply.outer(y, freqs)) @ (freqs * freqs * self.coeffs)
        return float(out) if out.ndim == 0 else out

    def recurrence_residual(self) -> float:
        """max_k |(b - 4(k+1)^2) c_k - q (c_{k-1} + c_{k+1})| with c_{-1} = c_trunc = 0."""
        c = self.coeffs
        k = np.arange(self.trunc)
        left = (self.b - 4.0 * (k + 1.0) ** 2) * c
        neighbors = np.zeros_like(c)
        neighbors[1:] += c[:-1]
        neighbors[:-1] += c[1:]
        return float(np.max(np.abs(left - self.q * neighbors)))


def default_trunc(n: int, q: float) -> int:
    """Truncation adequate for level n at parameter q (coefficient tail < 1e-12)."""
    return max(n + 16, math.ceil(2.0 * math.sqrt(abs(q))) + 16)


def _freeze(vec: np.ndarray) -> np.ndarray:
    vec = np.array(vec, dtype=float)
    vec.setflags(write=False)
    return vec


class _Eigensystem:
    """The lowest levels at (q, trunc) from one tridiagonal eigensolve.

    A truncation up to ``_FULL_MAX`` is diagonalized in full on
    construction.  A larger one computes only its lowest ``_LEVEL_BLOCK``
    levels, and ``level(n)`` past them computes the missing ones in one more
    call, at least doubling the count, so memory stays O(trunc * levels
    used).  Residuals of new eigenpairs are checked once, as they are
    computed.  ``level(n)`` normalizes, sign-anchors (see the module
    docstring) and freezes column n on first use and memoizes the result, so
    repeated requests return the same object.
    """

    def __init__(self, q: float, trunc: int):
        self.q = q
        freqs = 2.0 * np.arange(trunc) + 2.0
        self.diag = freqs**2
        # (-1)^k (2k+2); the dot product with c is -se'(-pi/2)
        self._wall_slope = freqs * (-1.0) ** np.arange(trunc)
        self.values = np.empty(0)
        self.vectors = np.empty((trunc, 0))
        self._levels: dict[int, MathieuSolution] = {}
        self._compute(trunc if trunc <= _FULL_MAX else _LEVEL_BLOCK)

    def _compute(self, count: int) -> None:
        """Add levels len(values)..count-1."""
        # imported here, not at module level: it is most of the package's
        # import time, and only an eigensolve needs it
        import scipy.linalg

        d, q = self.diag, self.q
        trunc, start = len(d), len(self.values)
        off = np.full(trunc - 1, q)
        if start == 0 and count == trunc:
            w, v = scipy.linalg.eigh_tridiagonal(d, off)
        else:
            # a tiny tol makes bisection converge to relative, not eps * |T|,
            # accuracy: the low levels stay exact at an oversize truncation
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
        if start:
            w, v = np.concatenate([self.values, w]), np.hstack([self.vectors, v])
        self.values, self.vectors = w, v

    def level(self, n: int) -> MathieuSolution:
        sol = self._levels.get(n)
        if sol is None:
            if n >= len(self.values):
                self._compute(min(len(self.diag), max(n + 1, 2 * len(self.values))))
            vec = self.vectors[:, n]
            vec = vec / np.linalg.norm(vec)
            if (-1) ** n * float(self._wall_slope @ vec) < 0:
                vec = -vec
            sol = MathieuSolution(n=n, q=self.q, b=float(self.values[n]), coeffs=_freeze(vec))
            self._levels[n] = sol
        return sol


_eigensystem = lru_cache(maxsize=_CACHE_SIZE)(_Eigensystem)


def _converged(q: float, trunc: int | None, levels: range) -> _Eigensystem:
    """Eigensystem at q whose ``levels`` all have tails below ``_TAIL_TOL``.

    The truncation starts at ``trunc`` rows (``default_trunc`` of the highest
    level if None), which must hold the highest level, and doubles until the
    tails fall.  It gives up past 2**_MAX_DOUBLINGS times the default
    truncation, so a small explicit start grows as far as the default one.
    A size past ``_MAX_ROWS`` is refused before it is allocated.
    """
    q = float(q)
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    top = levels[-1]
    default = default_trunc(top, q)
    size = default if trunc is None else trunc
    if size <= top:
        raise ValueError(f"trunc={size} cannot hold level n={top}")
    while True:
        if size > _MAX_ROWS:
            raise ConvergenceError(f"levels {levels[0]}..{top} at q={q} need over {_MAX_ROWS} rows")
        system = _eigensystem(q, size)
        # highest level first, so a partial eigensystem grows in one call
        if max(system.level(n).tail for n in reversed(levels)) <= _TAIL_TOL:
            return system
        size *= 2
        if size > 2**_MAX_DOUBLINGS * default:
            raise ConvergenceError(
                f"coefficient tail did not fall below {_TAIL_TOL} "
                f"(levels {levels.start}..{top}, q={q})"
            )


def solve(n: int, q: float, trunc: int | None = None) -> MathieuSolution:
    """Characteristic value and Fourier coefficients for level n at parameter q.

    The truncation starts at ``trunc`` (or ``default_trunc(n, q)``) and
    doubles until the tail coefficient drops below 1e-12.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    return _converged(q, trunc, range(n, n + 1)).level(n)


def solve_many(count: int, q: float, trunc: int | None = None) -> tuple[MathieuSolution, ...]:
    """Levels 0..count-1 at parameter q, all read from one eigendecomposition.

    The truncation grows as in ``solve``, until every level's tail
    coefficient drops below 1e-12.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    system = _converged(q, trunc, range(count))
    return tuple(system.level(n) for n in range(count))


def se(n: int, q: float, y):
    """Sine-elliptic function for level n at parameter q, evaluated at y."""
    return solve(n, q).se(y)
