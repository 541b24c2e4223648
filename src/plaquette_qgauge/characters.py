"""SU(2) character algebra and the realizations of the reduced Hilbert space.

The reduced Hilbert space has a distinguished orthonormal basis indexed by
n = 0, 1, 2, ... (twice the spin).  A basis element can be realized three ways:

* abstractly, as the n-th unit coordinate vector;
* on the interval [0, pi] as the function sqrt(2) sin((n+1)x), orthonormal
  under the inner product (1/pi) * integral over [0, pi] (``char_l2``);
* holomorphically, as C_n^(-1/2) times the complex character
  z^n + z^(n-2) + ... + z^(-n) (``char_complex``), where C_n is the
  Peter-Weyl constant returned by ``peter_weyl_constant``.

Conventions fixed here: the group volume is normalized to 1, and the inner
product on [0, pi] gives the constant function 1 norm 1.

This module is the one implementation of the interval realization
(``char_l2`` for a basis vector; sqrt(2) ``sine_series(x, c)`` for a
coefficient vector c, a vertex state or an energy eigenstate row alike,
exactly 0 at both walls and summed without BLAS, so the ``states`` command
and the Mathieu ``se`` do not depend on the BLAS thread count), of the
Gauss-Legendre rule on [0, pi] (``quadrature_rule``, used by the
verification suite) and of the Laplace eigenvalue (``laplace_eigenvalue``,
the diagonal of the Hamiltonian).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .params import ModelParams

# below this |sin x| the quotient sin((n+1)x)/sin(x) is replaced by its limit
_SIN_EPS = 1e-8
#: most values (8 MB) in one chunk of the ``sine_series`` sine matrix
_SERIES_CHUNK = 2**20


def char_real(n: int, x):
    """Character of the (n+1)-dimensional irreducible on the torus parameter x.

    Equals sin((n+1)x)/sin(x) with the removable singularities at x = 0 and
    x = pi filled by the limits (n+1) and (-1)^n (n+1).  Accepts scalars or
    arrays.
    """
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    s = np.sin(x)
    near_pole = np.abs(s) < _SIN_EPS
    safe = np.where(near_pole, 1.0, s)
    value = np.sin((n + 1) * x) / safe
    limit = np.where(np.cos(x) > 0.0, float(n + 1), (-1.0) ** n * (n + 1))
    out = np.where(near_pole, limit, value)
    return float(out) if out.ndim == 0 else out


def char_l2(n: int, x):
    """Realization of the n-th basis vector in L^2[0, pi]: sqrt(2) sin((n+1)x)."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    out = math.sqrt(2.0) * np.sin((n + 1) * x)
    return float(out) if out.ndim == 0 else out


def sine_series(x, coeffs: np.ndarray):
    """sum_k coeffs[k] sin((k+1) x) at x (scalar or array).

    Each point is evaluated at its nearest multiple of pi: with x = m pi + u,
    sin((k+1) x) = (-1)^((k+1) m) sin((k+1) u), and u = x - m pi is exact
    within pi/2 of the wall, so the series is exactly 0 at x = 0 and at
    x = pi (``math.pi``) and keeps its relative accuracy near them.  An odd
    m takes the coefficients with the signs of even k flipped, which is
    exact.  The (points, terms) sine matrix is built in chunks of a multiple
    of 8 points of one parity of m holding at most ``_SERIES_CHUNK`` values
    (at least 8 points), to bound memory.  ``np.sum`` along the contiguous
    axis, not a BLAS product, sums each point, so neither the chunk nor the
    thread count changes it.
    """
    x = np.asarray(x, dtype=float)
    freqs = np.arange(1.0, len(coeffs) + 1.0)
    walls = np.rint(x.reshape(-1) / math.pi)
    points = x.reshape(-1) - walls * math.pi
    odd = walls % 2.0 != 0.0
    flipped = (-1.0) ** freqs * coeffs
    out = np.empty(len(points))
    step = max(8, _SERIES_CHUNK // len(coeffs) // 8 * 8)
    for signed, at in ((coeffs, ~odd), (flipped, odd)):
        at = np.flatnonzero(at)
        for lo in range(0, len(at), step):
            chunk = at[lo : lo + step]
            block = np.multiply.outer(points[chunk], freqs)
            np.sin(block, out=block)
            block *= signed
            out[chunk] = np.sum(block, axis=1)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def char_complex(n: int, z: complex) -> complex:
    """Holomorphic character z^n + z^(n-2) + ... + z^(-n) (n+1 terms)."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("char_complex is undefined at z = 0")
    power = z ** n
    step = 1.0 / (z * z)
    total = 0.0 + 0.0j
    for _ in range(n + 1):
        total += power
        power *= step
    return total


def laplace_eigenvalue(n):
    """Eigenvalue n * (n+2), in units of beta2, of (minus) the Laplacian on the n-th character.

    Accepts an integer or an integer array of basis indices.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"basis index must be >= 0, got {n}")
    out = n * (n + 2.0)
    return float(out) if out.ndim == 0 else out


def peter_weyl_constant(n: int, params: ModelParams) -> float:
    """Squared norm C_n = (hbar pi)^(3/2) exp(hbar beta2 (n+1)^2) of the complex character.

    Raises OverflowError once the exponent leaves the double range.
    """
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    return (params.hbar * math.pi) ** 1.5 * math.exp(params.t * (n + 1) ** 2)


def haar_density(x):
    """Density sin(x)^2 / pi of the pushed-forward Haar measure on [0, pi].

    With the volume normalization adopted here the total mass is 1/2; only
    ratios of integrals enter any physical quantity.
    """
    x = np.asarray(x, dtype=float)
    out = np.sin(x) ** 2 / math.pi
    return float(out) if out.ndim == 0 else out


def quadrature_rule(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, pi].

    sum(w * f(x)) / pi approximates the inner-product integral
    (1/pi) * integral_0^pi f(x) dx.
    """
    nodes, weights = np.polynomial.legendre.leggauss(num_nodes)
    x = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    return x, w


def l2_inner_product(f, g, num_nodes: int = 512) -> float:
    """Inner product (1/pi) * integral_0^pi f(x) g(x) dx by Gauss-Legendre quadrature.

    512 nodes integrate products of the basis functions used anywhere in the
    package to well below 1e-12.
    """
    x, w = quadrature_rule(num_nodes)
    return float(np.sum(w * np.asarray(f(x)) * np.asarray(g(x))) / math.pi)
