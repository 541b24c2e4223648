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
quantities go through the Mathieu route.  Eigenstate coefficients pick up the
alternating sign of the change of variable y = (x - pi)/2:
coefficient k of level n is (-1)^(n+k) times the Mathieu Fourier coefficient.

Projector expectations are squared overlaps of eigenstates with the two
vertex states, and one batched helper computes them for any set of levels
that share a truncation: the vertex weights, the normalization N and the tail
checks once per call, then both strata's overlaps as row sums over the
stacked (levels, trunc) coefficient array.  So a grid point of
``projector_expectations`` costs one normalization and one array pass, and
the single-level ``projector_expectation`` gives bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import characters, costratified, mathieu
from .costratified import StateVector, TruncationError
from .params import ModelParams
from .strata import Stratum

_TAIL_TOL = 1e-12
#: projector_expectations doubles its completeness count until the sum of
#: the plus expectations is within this of 1, up to _COMPLETENESS_MAX levels
_COMPLETENESS_TOL = 1e-6
_COMPLETENESS_MAX = 960


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
    """First ``count`` eigenvalues of the truncated Hamiltonian matrix (oracle route)."""
    import scipy.linalg  # deferred, as in mathieu: only an eigensolve loads scipy

    if dim is None:
        dim = mathieu.default_trunc(count - 1, 4.0 * params.nu_tilde)
    w = scipy.linalg.eigvalsh_tridiagonal(*_tridiagonal(params, dim))
    return np.sort(w)[:count]


def energy(n: int, params: ModelParams) -> float:
    """Energy of level n through the Mathieu characteristic value."""
    sol = mathieu.solve(n, 4.0 * params.nu_tilde)
    return 0.5 * params.hbar2_beta2 * (sol.b / 4.0 + 3.0 * params.nu_tilde - 1.0)


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

    At nu_tilde = 0 the result is exactly the n-th basis vector.
    """
    if trunc is None:
        trunc = _state_trunc(n, params)
    sol = mathieu.solve(n, 4.0 * params.nu_tilde, trunc=trunc)
    state = StateVector(_signed_coeffs(sol), params)
    return SpectralResult(n=n, energy=energy(n, params), state=state, params=params)


def eigenfunction_x(n: int, params: ModelParams, x):
    """Interval realization of level n on [0, pi].

    Equals (-1)^(n+1) sqrt(2) se(n, 4 nu_tilde, (x - pi)/2), which reduces to
    sqrt(2) sin((n+1)x) in the free theory.
    """
    x = np.asarray(x, dtype=float)
    sol = mathieu.solve(n, 4.0 * params.nu_tilde)
    out = (-1.0) ** (n + 1) * math.sqrt(2.0) * np.asarray(sol.se((x - math.pi) / 2.0))
    return float(out) if out.ndim == 0 else out


def _stratum_signs(count: int, stratum: Stratum) -> np.ndarray:
    """Sign weights of the vertex-state overlap sums: (-1)^k for plus, +1 for minus."""
    if stratum.sign > 0:
        return (-1.0) ** np.arange(count)
    return np.ones(count)


def _vertex_overlaps(
    sols: tuple[mathieu.MathieuSolution, ...], params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps of the eigenstate levels ``sols`` with the plus and minus vertex states.

    Level n's overlap with a stratum's vertex state is
    ((-1)^n / N) * sum_k s_k (k+1) exp(-t (k+1)^2/2) c_k with s_k the stratum
    sign weights; it requires both coefficient tails to be negligible.  N and
    the weights are built once for all levels, which share one truncation.
    Each level is summed along the contiguous axis of the stacked array, in
    the same order as a 1-D sum over that level alone, so results do not
    depend on the batch; a matrix product would change that order.
    """
    t = params.t
    trunc = sols[0].trunc
    weights = costratified.vertex_weights(t, trunc)
    n_const = costratified.normalization_constant(t)
    tail = max(sol.tail for sol in sols)
    if tail > _TAIL_TOL:
        raise TruncationError(f"Mathieu coefficient tail {tail:.2e} exceeds {_TAIL_TOL}")
    if weights[-1] / n_const > _TAIL_TOL:
        raise TruncationError(
            f"vertex-state weight tail {weights[-1] / n_const:.2e} exceeds {_TAIL_TOL}"
        )
    coeffs = np.array([sol.coeffs for sol in sols])
    scale = (-1.0) ** np.array([sol.n for sol in sols]) / n_const
    plus = scale * np.sum(_stratum_signs(trunc, Stratum.PLUS) * weights * coeffs, axis=1)
    minus = scale * np.sum(_stratum_signs(trunc, Stratum.MINUS) * weights * coeffs, axis=1)
    return plus, minus


def projector_expectation(n: int, params: ModelParams, stratum: Stratum) -> float:
    """Probability of finding energy level n in the given vertex subspace."""
    sign = stratum.sign  # rejects Stratum.TOP
    sol = mathieu.solve(n, 4.0 * params.nu_tilde, trunc=_state_trunc(n, params))
    plus, minus = _vertex_overlaps((sol,), params)
    overlap = float(plus[0] if sign > 0 else minus[0])
    return overlap * overlap


def projector_expectations(
    params: ModelParams, count: int, completeness_count: int = 60
) -> tuple[np.ndarray, np.ndarray, float]:
    """Plus/minus projector expectations for levels 0..count-1 plus a completeness sum.

    The completeness diagnostic sums the plus expectations over the first
    ``completeness_count`` levels; it approaches 1 because the eigenstates are
    a complete orthonormal family and the vertex state has unit norm.  At
    strong coupling the vertex state spreads over more levels, so the count
    doubles until the sum reaches 1 - 1e-6; past ``_COMPLETENESS_MAX``
    levels a ``TruncationError`` is raised.
    """
    while True:
        total = max(count, completeness_count)
        trunc = _state_trunc(total - 1, params)
        sols = mathieu.solve_many(total, 4.0 * params.nu_tilde, trunc=trunc)
        plus, minus = _vertex_overlaps(sols, params)
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
