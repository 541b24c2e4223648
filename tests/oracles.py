"""Independent oracles used only by the test suite.

The vertex-sum oracle sums the normalization and tunneling series in mpmath
at a precision that covers their cancellation.  The shooting oracle solves
the boundary-value problem behind the Mathieu characteristic values with
completely different machinery than the production path (fixed-step RK4
integration of the ODE plus bisection on the spectral parameter, instead of
a tridiagonal eigendecomposition), so shared index or convention bugs cannot
cancel.
"""

from __future__ import annotations

import math

import numpy as np


def _integrate_miss(a, q, nsteps: int):
    """u(0) for u'' + (a - 2 q cos 2y) u = 0, u(-pi/2) = 0, u'(-pi/2) = 1.

    Classic RK4 with nsteps fixed steps; a and q may be equal-length arrays.
    """
    a = np.asarray(a, dtype=float)
    q = np.broadcast_to(np.asarray(q, dtype=float), a.shape)
    h = (np.pi / 2.0) / nsteps
    y = -np.pi / 2.0
    u = np.zeros_like(a)
    v = np.ones_like(a)

    def acc(yy, uu):
        return -(a - 2.0 * q * np.cos(2.0 * yy)) * uu

    half = 0.5 * h
    for _ in range(nsteps):
        k1u = v
        k1v = acc(y, u)
        k2u = v + half * k1v
        k2v = acc(y + half, u + half * k1u)
        k3u = v + half * k2v
        k3v = acc(y + half, u + half * k2u)
        k4u = v + h * k3v
        k4v = acc(y + h, u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        y += h
    return u


def _brackets(q: float, count: int, nsteps: int):
    """Sign-change brackets of the miss function containing the first count roots."""
    a_lo = min(-2.0 * q - 2.0, 2.0)
    a_hi = (2.0 * count + 4.0) ** 2 + 2.0 * q + 5.0
    grid = np.arange(a_lo, a_hi, 0.5)
    miss = _integrate_miss(grid, q, nsteps)
    signs = np.sign(miss)
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(idx) < count:
        raise RuntimeError(f"only {len(idx)} brackets found for q={q}")
    return grid[idx[:count]], grid[idx[:count] + 1], miss[idx[:count]]


def shooting_characteristic_values(
    qs, count: int, nsteps: int = 6000, bisections: int = 30
) -> dict[float, np.ndarray]:
    """First ``count`` Dirichlet eigenvalues on [-pi/2, 0] for each q in qs.

    All bisections (count roots for every q) advance together in one
    vectorized sweep.
    """
    qs = [float(q) for q in qs]
    lo_all, hi_all, flo_all, q_all = [], [], [], []
    for q in qs:
        lo, hi, flo = _brackets(q, count, nsteps)
        lo_all.append(lo)
        hi_all.append(hi)
        flo_all.append(flo)
        q_all.append(np.full(count, q))
    lo = np.concatenate(lo_all)
    hi = np.concatenate(hi_all)
    flo = np.concatenate(flo_all)
    qv = np.concatenate(q_all)
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        fm = _integrate_miss(mid, qv, nsteps)
        go_right = np.sign(fm) == np.sign(flo)
        lo = np.where(go_right, mid, lo)
        flo = np.where(go_right, fm, flo)
        hi = np.where(go_right, hi, mid)
    roots = 0.5 * (lo + hi)
    return {q: roots[i * count : (i + 1) * count] for i, q in enumerate(qs)}


def character_hamiltonian(nu_tilde: float, dim: int) -> np.ndarray:
    """Dense Hamiltonian in the character basis, in units of hbar^2 beta2.

    Diagonal k(k+2)/2 + 3 nu_tilde / 2, off-diagonal -nu_tilde / 2; built
    directly as a dense matrix, apart from the package's tridiagonal solvers.
    """
    k = np.arange(dim, dtype=float)
    off = np.full(dim - 1, -0.5 * nu_tilde)
    return np.diag(0.5 * k * (k + 2.0) + 1.5 * nu_tilde) + np.diag(off, 1) + np.diag(off, -1)


def dense_dim(nu_tilde: float) -> int:
    """Dense size that leaves the lowest ~60 levels exact to rounding.

    Eigenvectors of the low levels decay beyond k ~ 2 sqrt(4 nu_tilde).
    """
    return 2 * int(np.ceil(2.0 * np.sqrt(4.0 * nu_tilde))) + 120


def dense_projectors(t: float, nu_tilde: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """P_plus and P_minus of levels 0..count-1 from a dense eigendecomposition."""
    dim = dense_dim(nu_tilde)
    _, vectors = np.linalg.eigh(character_hamiltonian(nu_tilde, dim))
    k = np.arange(dim, dtype=float)
    plus = (k + 1.0) * np.exp(-t * (k + 1.0) ** 2 / 2.0)
    plus /= np.sqrt(np.sum(plus * plus))
    minus = plus * (-1.0) ** k
    return (vectors[:, :count].T @ plus) ** 2, (vectors[:, :count].T @ minus) ** 2


def bounded_partitions(k: int, max_part: int) -> list[tuple[int, ...]]:
    """All partitions of k into parts of size at most max_part (brute force)."""
    if k == 0:
        return [()]
    out = []
    for largest in range(min(k, max_part), 0, -1):
        for rest in bounded_partitions(k - largest, largest):
            out.append((largest, *rest))
    return out


def exact_vertex_sums(t: float):
    """N^2 = sum n^2 e^(-t n^2) and the overlap sum (-1)^(n+1) n^2 e^(-t n^2) / N^2, n >= 1.

    Direct summation in mpmath.  The overlap is about exp(-pi^2 / 4t) times
    the largest term, so the working precision adds that many digits.
    """
    import mpmath

    digits = 30 + int(math.pi**2 / (4.0 * t) / math.log(10.0))
    with mpmath.workdps(digits):
        q = mpmath.exp(-mpmath.mpf(t))
        cutoff = mpmath.mpf(10) ** (-digits)
        norm = mpmath.mpf(0)
        alternating = mpmath.mpf(0)
        n = 1
        while True:
            term = n * n * q ** (n * n)
            norm += term
            alternating += term if n % 2 else -term
            if n > 4 and term < cutoff * norm:
                return norm, alternating / norm
            n += 1
