"""Spectrum of the single-plaquette Hamiltonian and stratum-projector expectations.

The Hamiltonian is the free Laplace term plus the potential (nu/2)(3 - chi_1).
Two independent routes to its spectrum are kept side by side:

* the Mathieu route: separation in the interval realization turns the
  stationary problem into the odd pi-periodic Mathieu equation with
  a = 8 E / (hbar^2 beta2) + 4 - 12 nu_tilde and q = 4 nu_tilde, so

      E_n = (hbar^2 beta2 / 2) (b(n, 4 nu_tilde)/4 + 3 nu_tilde - 1);

* the matrix route: in the orthonormal character basis the multiplication
  operator chi_1 is the unit-off-diagonal tridiagonal matrix (the character
  product rule chi_1 chi_k = chi_{k+1} + chi_{k-1}), giving the symmetric
  tridiagonal Hamiltonian assembled by ``hamiltonian_matrix``.

The matrix route exists purely as a cross-check oracle; all production
quantities go through the Mathieu route.  The two share a tridiagonal up to
scaling, shift and a (-1)^k similarity, but not the LAPACK algorithm: the
oracle takes the values alone from numpy's ``eigvalsh`` (``dsyevd``, whose
values-only path is ``dsterf``'s root-free QL/QR iteration), the Mathieu
route takes values and vectors together from ``dstedc`` (bisection past 512
rows).  Eigenstate coefficients pick up the alternating sign of the change
of variable y = (x - pi)/2: coefficient k of level n is (-1)^(n+k) times
the Mathieu Fourier coefficient.

Both sweeps read one Mathieu eigensystem per q.  ``energy`` takes one level
or an integer array of levels, and an array is served by one eigensolve, so
a spectrum sweep costs one eigensolve per nu_tilde.  Projector expectations
are squared overlaps of eigenstates with the two vertex states, and one
batched helper computes them for a block of levels: the vertex weights and
the tail checks once per call, the normalization N once per distinct t in a
process (``_normalization``), then both strata's overlaps as row sums over
the eigensystem's (levels, trunc) coefficient block, read in place.  So a
grid point of ``projector_expectations`` costs one array pass, a sweep one
normalization per t, and each batched value is bit-identical to the
per-level formula at the same truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import characters, costratified, mathieu
from .costratified import StateVector, TruncationError, vertex_weights
from .params import ModelParams
from .strata import Stratum

_TAIL_TOL = 1e-12
#: projector_expectations sums P_plus over _COMPLETENESS_START levels, doubling
#: the count until the sum is within _COMPLETENESS_TOL of 1, up to _COMPLETENESS_MAX
_COMPLETENESS_START = 60
_COMPLETENESS_TOL = 1e-6
_COMPLETENESS_MAX = 960
#: distinct t whose vertex-state normalization is kept (see ``_normalization``)
_NORMALIZATION_CACHE = 1024


@dataclass(frozen=True)
class SpectralResult:
    """Energy level n: eigenvalue and eigenstate coefficients."""

    n: int
    energy: float
    state: StateVector
    params: ModelParams


def _tridiagonal(params: ModelParams, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Hamiltonian on the first dim basis states."""
    diag = 0.5 * params.hbar**2 * characters.laplace_eigenvalue(np.arange(dim), params)
    diag += 1.5 * params.nu
    return diag, np.full(dim - 1, -0.5 * params.nu)


def hamiltonian_matrix(params: ModelParams, dim: int) -> np.ndarray:
    """Dense symmetric tridiagonal Hamiltonian truncated to the first dim basis states."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    diag, off = _tridiagonal(params, dim)
    h = np.diag(diag)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


def matrix_energies(params: ModelParams, count: int, dim: int | None = None) -> np.ndarray:
    """First ``count`` eigenvalues of the truncated Hamiltonian matrix (oracle route).

    numpy's dense ``eigvalsh`` (LAPACK ``dsyevd`` without vectors) reaches
    the values through ``dsterf``'s root-free QL/QR iteration; the Mathieu
    route takes them, with the vectors, from ``dstedc``.
    """
    if dim is None:
        dim = mathieu.default_trunc(count - 1, 4.0 * params.nu_tilde)
    return np.linalg.eigvalsh(hamiltonian_matrix(params, dim))[:count]


def _energy_from_b(b: float, params: ModelParams) -> float:
    return 0.5 * params.hbar2_beta2 * (b / 4.0 + 3.0 * params.nu_tilde - 1.0)


def energy(n, params: ModelParams):
    """Energy of level n through the Mathieu characteristic value.

    ``n`` may also be an integer array of levels; their energies, an array,
    all come from one eigensystem (see ``mathieu.solve``).
    """
    return _energy_from_b(mathieu.solve(n, 4.0 * params.nu_tilde).b, params)


def _state_trunc(n: int, params: ModelParams) -> int:
    return max(
        mathieu.default_trunc(n, 4.0 * params.nu_tilde),
        costratified.default_trunc(params.t),
    )


def _signed_coeffs(sol: mathieu.MathieuSolution) -> np.ndarray:
    k = np.arange(sol.trunc)
    return (-1.0) ** (sol.n + k) * sol.coeffs


def eigenstate(n: int, params: ModelParams, trunc: int | None = None) -> SpectralResult:
    """Eigenstate of level n as a coefficient vector in the orthonormal basis.

    The energy and the coefficients come from the same eigensolve.  At
    nu_tilde = 0 the result is exactly the n-th basis vector.
    """
    if trunc is None:
        trunc = _state_trunc(n, params)
    sol = mathieu.solve(n, 4.0 * params.nu_tilde, trunc=trunc)
    state = StateVector(_signed_coeffs(sol), params)
    return SpectralResult(n=n, energy=_energy_from_b(sol.b, params), state=state, params=params)


def eigenfunction_x(n: int, params: ModelParams, x):
    """Interval realization of level n on [0, pi].

    Equals (-1)^(n+1) sqrt(2) se(n, 4 nu_tilde, (x - pi)/2), which reduces to
    sqrt(2) sin((n+1)x) in the free theory.
    """
    x = np.asarray(x, dtype=float)
    sol = mathieu.solve(n, 4.0 * params.nu_tilde)
    out = (-1.0) ** (n + 1) * math.sqrt(2.0) * np.asarray(sol.se((x - math.pi) / 2.0))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=_NORMALIZATION_CACHE)
def _normalization(t: float) -> float:
    """``costratified.normalization_constant(t)``, computed once per distinct t.

    A projector sweep meets each t once per nu_tilde, and it runs
    nu_tilde-major for the eigensystem cache, so every t of the sweep is
    kept, not only the last.
    """
    return costratified.normalization_constant(t)


def _vertex_overlaps(
    levels: mathieu.MathieuLevels, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps of the eigenstate ``levels`` with the plus and minus vertex states.

    Level n's overlap with a stratum's vertex state is
    ((-1)^n / N) * sum_k (-1)^k v_k c_k, with v the stratum's vertex weights
    and (-1)^(n+k) the eigenstate's character-basis sign; it requires both
    coefficient tails to be negligible.  N and the weights are built once
    for all levels.  The sums run over the rows of the eigensystem's
    coefficient block, each along its contiguous axis in the same order as a
    1-D sum over that level alone, so results do not depend on the batch; a
    matrix product would change that order.
    """
    t = params.t
    alternating = (-1.0) ** np.arange(levels.trunc)
    plus = vertex_weights(Stratum.PLUS, t, levels.trunc) * alternating
    minus = vertex_weights(Stratum.MINUS, t, levels.trunc) * alternating
    n_const = _normalization(t)
    tail = float(np.max(levels.tail))
    if tail > _TAIL_TOL:
        raise TruncationError(f"Mathieu coefficient tail {tail:.2e} exceeds {_TAIL_TOL}")
    weight_tail = abs(plus[-1]) / n_const
    if weight_tail > _TAIL_TOL:
        raise TruncationError(f"vertex-state weight tail {weight_tail:.2e} exceeds {_TAIL_TOL}")
    coeffs = levels.coeffs
    scale = (-1.0) ** levels.n / n_const
    return scale * np.sum(plus * coeffs, axis=1), scale * np.sum(minus * coeffs, axis=1)


def projector_expectation(n: int, params: ModelParams, stratum: Stratum) -> float:
    """Probability of finding energy level n in the given vertex subspace.

    Level n of ``projector_expectations(params, n + 1)``, read at that
    batch's truncation, so the value is the batch's bit for bit and one call
    costs one batch of at least 60 levels.
    """
    sign = stratum.sign  # rejects Stratum.TOP; n < 0 is a count below 1
    plus, minus, _ = projector_expectations(params, n + 1)
    return float((plus if sign > 0 else minus)[n])


def projector_expectations(params: ModelParams, count: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Plus/minus projector expectations for levels 0..count-1 plus a completeness sum.

    The completeness diagnostic sums the plus expectations over the first
    ``_COMPLETENESS_START`` (60) levels; it approaches 1 because the
    eigenstates are a complete orthonormal family and the vertex state has
    unit norm.  At strong coupling the vertex state spreads over more
    levels, so the count doubles until the sum reaches 1 - 1e-6; past
    ``_COMPLETENESS_MAX`` levels a ``TruncationError`` is raised.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    completeness_count = _COMPLETENESS_START
    while True:
        total = max(count, completeness_count)
        trunc = _state_trunc(total - 1, params)
        levels = mathieu.solve_many(total, 4.0 * params.nu_tilde, trunc=trunc)
        plus, minus = _vertex_overlaps(levels, params)
        plus, minus = plus**2, minus**2
        completeness = float(np.sum(plus[:completeness_count]))
        if completeness >= 1.0 - _COMPLETENESS_TOL:
            return plus[:count], minus[:count], completeness
        if completeness_count >= _COMPLETENESS_MAX:
            raise TruncationError(
                f"projector completeness {completeness!r} below 1 - {_COMPLETENESS_TOL} "
                f"with {completeness_count} levels (t={params.t}, nu_tilde={params.nu_tilde})"
            )
        completeness_count = min(2 * completeness_count, _COMPLETENESS_MAX)
