"""Spectrum of the single-plaquette Hamiltonian and stratum-projector expectations.

The Hamiltonian is the free Laplace term plus the potential (nu/2)(3 - chi_1).
Everything here takes the reduced coordinates t = hbar beta2 and nu_tilde
as plain floats, computes at exactly the values it is given, and gives
energies in units of hbar^2 beta2.  Every Mathieu parameter q = 4 nu_tilde
is formed by ``_q``, which refuses a nu_tilde past the Mathieu domain edge
(|nu_tilde| > 1.7e10) with ``ConvergenceError`` before the product can
overflow.  Two independent routes to the spectrum are kept side by side:

* the Mathieu route: separation in the interval realization turns the
  stationary problem into the odd pi-periodic Mathieu equation with
  a = 8 E / (hbar^2 beta2) + 4 - 12 nu_tilde and q = 4 nu_tilde, so

      E_n / (hbar^2 beta2) = (b(n, 4 nu_tilde)/4 + 3 nu_tilde - 1) / 2;

* the matrix route: in the orthonormal character basis the multiplication
  operator chi_1 is the unit-off-diagonal tridiagonal matrix (the character
  product rule chi_1 chi_k = chi_{k+1} + chi_{k-1}), giving the symmetric
  tridiagonal Hamiltonian assembled by ``hamiltonian_matrix``: diagonal
  k(k+2)/2 + 3 nu_tilde/2, off-diagonal -nu_tilde/2.

The matrix route exists purely as a cross-check oracle; all production
quantities go through the Mathieu route.  The two share a tridiagonal up to
scaling, shift and a (-1)^k similarity, but not the LAPACK algorithm: the
oracle takes the values alone from numpy's ``eigvalsh`` (``dsyevd``, whose
values-only path is ``dsterf``'s root-free QL/QR iteration), the Mathieu
route takes values and vectors together from ``dstedc`` (bisection past 512
rows).  Eigenstate coefficients pick up the alternating sign of the change
of variable y = (x - pi)/2: coefficient k of level n is (-1)^(n+k) times
the Mathieu Fourier coefficient.  ``eigenstates`` is the one place that
applies that sign to solved rows; ``eigenfunction_x`` evaluates its row on
[0, pi] through ``characters.sine_series``, the kernel that also evaluates
the vertex states, so this module never evaluates ``mathieu.se``.

Both sweeps read one Mathieu eigensystem per q.  ``energy`` takes one level
or an integer array of levels, and an array is served by one eigensolve, so
a spectrum sweep costs one eigensolve per nu_tilde; ``eigenstates`` serves
the energies and state rows of an array of levels the same way, at
``mathieu.solve``'s truncation unless given one, and ``eigenstate`` returns
one level's ``(energy, row)``.  Projector expectations are squared overlaps
of eigenstates with the two vertex states; their weights fold in the sign
themselves.
``projector_expectations`` serves a whole (t, nu_tilde) sweep in one call,
at q = 4 nu_tilde (multiplying by 4 is exact), which does not depend on t.
At each q the t that share a truncation read one eigensystem, and each t's
overlaps are row sums over that eigensystem's (levels, trunc) coefficient
block, read in place.  The
normalization N is computed once per distinct t in a call, and the signed
vertex weights with their tail check once per distinct (t, truncation).
So a projector sweep whose t share a truncation costs one eigensolve per
nu_tilde and one normalization per t, and each batched value is
bit-identical to the per-level formula at the same q and truncation.
"""

from __future__ import annotations

import math

import numpy as np

from . import characters, costratified, mathieu
from .costratified import TruncationError, vertex_weights
from .strata import Stratum

#: projector_expectations sums P_plus over the level counts of these rungs, in
#: turn, until the sum is within _COMPLETENESS_TOL of 1
_COMPLETENESS_COUNTS = (60, 120, 240, 480, 960)
_COMPLETENESS_TOL = 1e-6


def hamiltonian_matrix(nu_tilde: float, dim: int) -> np.ndarray:
    """Dense H / (hbar^2 beta2), symmetric tridiagonal, truncated to the first dim basis states."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    off = np.full(dim - 1, -0.5 * nu_tilde)
    h = np.diag(0.5 * characters.laplace_eigenvalue(np.arange(dim)) + 1.5 * nu_tilde)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


def _q(nu_tilde: float) -> float:
    """The Mathieu parameter q = 4 nu_tilde, refused past the domain edge before it can overflow."""
    if abs(nu_tilde) > mathieu._MAX_Q / 4:
        raise mathieu.ConvergenceError(
            f"nu_tilde={nu_tilde} is past the domain edge |nu_tilde| <= {mathieu._MAX_Q / 4:g}"
        )
    return 4.0 * nu_tilde


def matrix_energies(nu_tilde: float, count: int) -> np.ndarray:
    """First ``count`` eigenvalues of the truncated ``hamiltonian_matrix`` (oracle route).

    The matrix has the Mathieu route's default truncation of the top level
    at q = 4 nu_tilde.  numpy's dense ``eigvalsh`` (LAPACK ``dsyevd``
    without vectors) reaches the values through ``dsterf``'s root-free
    QL/QR iteration; the Mathieu route takes them, with the vectors, from
    ``dstedc``.
    """
    dim = mathieu.default_trunc(count - 1, _q(nu_tilde))
    return np.linalg.eigvalsh(hamiltonian_matrix(nu_tilde, dim))[:count]


def _energy_from_b(b: float, nu_tilde: float) -> float:
    return 0.5 * (b / 4.0 + 3.0 * nu_tilde - 1.0)


def energy(n, nu_tilde: float):
    """Energy E_n / (hbar^2 beta2) of level n through the Mathieu characteristic value.

    ``n`` may also be an integer array of levels; their energies, an array,
    all come from one eigensystem (see ``mathieu.solve``).
    """
    return _energy_from_b(mathieu.solve(n, _q(nu_tilde)).b, nu_tilde)


def _state_trunc(n: int, q: float, t: float) -> int:
    return max(mathieu.default_trunc(n, q), costratified.default_trunc(t))


def eigenstates(levels, nu_tilde: float, trunc: int | None = None):
    """Energies and orthonormal-basis coefficient rows of an integer array of levels.

    Returns the energies E_n / (hbar^2 beta2) and a read-only (levels, trunc)
    array whose row i is the eigenstate of ``levels[i]``, all from one
    eigensolve at ``mathieu.solve``'s truncation unless ``trunc`` is given; a
    caller that dots the rows with a vertex state passes its length.  Row i
    is (-1)^(n+k) times the Mathieu coefficient k of level n = ``levels[i]``,
    the sign of the change of variable y = (x - pi)/2.  At nu_tilde = 0 each
    row is exactly its basis vector.
    """
    levels = np.asarray(levels)
    b, coeffs = mathieu.solve(levels, _q(nu_tilde), trunc=trunc)
    rows = (-1.0) ** (levels[:, None] + np.arange(coeffs.shape[1])) * coeffs
    rows.setflags(write=False)
    return _energy_from_b(b, nu_tilde), rows


def eigenstate(n: int, nu_tilde: float, trunc: int | None = None) -> tuple[float, np.ndarray]:
    """Energy and read-only coefficient row of level n, as ``eigenstates([n], ...)`` gives them."""
    energies, coeffs = eigenstates([n], nu_tilde, trunc)
    return float(energies[0]), coeffs[0]


def eigenfunction_x(n: int, nu_tilde: float, x):
    """Interval realization sqrt(2) sum_k c_k sin((k+1)x) of level n's row c on [0, pi].

    It equals (-1)^(n+1) sqrt(2) se(n, 4 nu_tilde, (x - pi)/2), reduces to
    sqrt(2) sin((n+1)x) in the free theory, and is exactly 0 at both walls.
    """
    return math.sqrt(2.0) * characters.sine_series(x, eigenstates([n], nu_tilde)[1][0])


def projector_expectation(n: int, t: float, nu_tilde: float, stratum: Stratum) -> float:
    """Probability of finding energy level n in the given vertex subspace.

    Level n of ``projector_expectations((t,), (nu_tilde,), n + 1)``, so the
    value is the sweep's bit for bit and one call costs one batch of at
    least 60 levels.
    """
    sign = stratum.sign  # rejects Stratum.TOP; n < 0 is a count below 1
    plus, minus, _ = projector_expectations((t,), (nu_tilde,), n + 1)
    return float((plus if sign > 0 else minus)[0, 0, n])


def projector_expectations(
    t_values, nu_tilde_values, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plus/minus projector expectations of levels 0..count-1 over a (t, nu_tilde) grid.

    Returns ``(T, V, count)`` arrays of the plus and minus expectations,
    entry ``[i, j]`` for ``t_values[i]`` and ``nu_tilde_values[j]``, and the
    ``(T, V)`` completeness sums.  Each nu_tilde is solved at exactly
    q = 4 nu_tilde, as ``energy`` solves it, so q does not depend on t.

    The completeness diagnostic sums the plus expectations over the first
    60 levels; it approaches 1 because the eigenstates are a complete
    orthonormal family and the vertex state has unit norm.  At strong
    coupling the vertex state spreads over more levels, so each point
    climbs the rungs of ``_COMPLETENESS_COUNTS`` (60, 120, 240, 480, 960
    levels) until its sum reaches 1 - 1e-6; past the last rung a
    ``TruncationError`` is raised.

    The sweep runs q-major: all t at one q before the next q.  At each q,
    each t climbs its own ladder at its own truncation (``_state_trunc``);
    the t that share a truncation on a rung read one ``mathieu.solve_many``
    result, so a q costs one eigensolve per distinct truncation, not one
    per t.  Each t's normalization N is computed once per call, and its
    signed vertex weights (-1)^k v_k, with their tail check, once per
    (t, truncation), when the sweep first reaches them, so errors are
    raised in the order of the grid.  Before any of that, a t whose vertex
    state would take more than ``MAX_ROWS`` rows raises ``TruncationError``,
    as ``costratified.stratum_state`` does (``costratified.check_rows``).

    Level n's overlap with a stratum's vertex state is
    ((-1)^n / N) sum_k (-1)^k v_k c_k, with v the stratum's vertex weights
    and (-1)^(n+k) the eigenstate's character-basis sign; the (-1)^n
    cancels exactly in the square.  The sums run over the rows of the
    eigensystem's coefficient block, each along its contiguous axis in the
    same order as a 1-D sum over that level alone, so results do not depend
    on the batch; a matrix product would change that order.  Minus overlaps
    are summed for the first ``count`` levels only, since the completeness
    ladder reads the plus ones alone.
    """
    t_values = [float(t) for t in t_values]
    for t in t_values:
        if not t > 0:
            raise ValueError(f"hbar_beta2 must be positive, got {t}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for t in t_values:
        # a vertex state too large to build is refused before any solve, as
        # ``stratum_state`` refuses it, not as a Mathieu solve past its rows
        costratified.check_rows(t, costratified.default_trunc(t))
    nu_tilde_values = [float(nut) for nut in nu_tilde_values]
    shape = (len(t_values), len(nu_tilde_values))
    plus_rows, minus_rows = np.empty((2, *shape, count))
    completeness_sums = np.empty(shape)
    norms: dict[float, float] = {}
    weights: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}
    for j, nu_tilde in enumerate(nu_tilde_values):
        # formed as the sweep reaches it, so a nu_tilde past the domain
        # edge raises in the order of the grid
        q = _q(nu_tilde)
        solved: dict[tuple[int, int], mathieu.MathieuLevels] = {}
        for i, t in enumerate(t_values):
            for completeness_count in _COMPLETENESS_COUNTS:
                total = max(count, completeness_count)
                trunc = _state_trunc(total - 1, q, t)
                levels = solved.get((total, trunc))
                if levels is None:
                    levels = solved[total, trunc] = mathieu.solve_many(total, q, trunc=trunc)
                if t not in norms:
                    norms[t] = costratified.normalization_constant(t)
                size = levels.coeffs.shape[1]
                key = (t, size)
                if key not in weights:
                    # (-1)^k flips the odd signs of the plus weights, giving the
                    # minus weights, and flips those of the minus weights back
                    weights[key] = (
                        vertex_weights(Stratum.MINUS, t, size),
                        vertex_weights(Stratum.PLUS, t, size),
                    )
                    costratified.check_tail(t, weights[key][0], norms[t])
                plus_weights, minus_weights = weights[key]
                scale = 1.0 / norms[t]
                plus = (scale * (plus_weights * levels.coeffs).sum(axis=1)) ** 2
                completeness = float(plus[:completeness_count].sum())
                if completeness >= 1.0 - _COMPLETENESS_TOL:
                    break
            else:
                raise TruncationError(
                    f"projector completeness {completeness!r} below 1 - {_COMPLETENESS_TOL} "
                    f"with {completeness_count} levels (t={t}, nu_tilde={nu_tilde})"
                )
            minus = (scale * (minus_weights * levels.coeffs[:count]).sum(axis=1)) ** 2
            plus_rows[i, j], minus_rows[i, j] = plus[:count], minus
            completeness_sums[i, j] = completeness
    return plus_rows, minus_rows, completeness_sums
