"""Costratified structure of the reduced Hilbert space.

Each vertex stratum of the reduced phase space carries a one-dimensional
quantum subspace: the orthogonal complement of the states whose holomorphic
realization vanishes at that vertex.  The two subspaces are spanned by the
unit states (built in the abstract orthonormal basis, t = hbar * beta2)

    plus:   a_n =        (n+1) exp(-t (n+1)^2 / 2) / N
    minus:  a_n = (-1)^n (n+1) exp(-t (n+1)^2 / 2) / N

with N^2 = sum_{n>=1} n^2 exp(-t n^2).  Their overlap is S / N^2 with the
alternating sum S = sum_{n>=1} (-1)^(n+1) n^2 exp(-t n^2).

A state is a 1-D array of its coefficients in that basis, as a Mathieu
row is: ``stratum_state`` returns the vertex state's read-only unit float
array, and ``project`` and ``vertex_evaluation`` take any such array.
The vertex state, its evaluation functional, its vanishing subspace and its
overlaps with eigenstates all read their signed weights from ``vertex_weights``.

N^2 and S each have two routes:

* direct: N^2 = (1/2) e^-t theta3'(e^-t) and S = (1/2) e^-t theta3'(-e^-t).
  The terms of S cancel to about exp(-pi^2 / 4t) of their size, so below
  t ~ 0.25 the direct S loses digits, and below t ~ 0.11 it is noise.
* dual: Poisson summation over n (DLMF 20.7(viii)) turns both into sums
  over k of exp(-pi^2 k^2 / t) and exp(-pi^2 (k + 1/2)^2 / t), whose terms
  do not cancel for small t and need one or two terms there.

The dual route is taken below t = 1 and the direct route at or above it.
In the band 0.25 <= t <= 2, where both are accurate, the other route is
computed as well and the two must agree to 1e-12 relative, else
``ConsistencyError``; outside the band no cross-check runs.  A value that is
not a normal double (N^2 for t above ~708 or below ~3e-206, the tunneling
probability for t below ~0.0069) raises ``FloatingPointError`` instead of
printing underflow or overflow.

Cost: ``_by_route`` branches once on t and computes the other route only in
the band.  On a 20,000-t log sweep over [0.01, 5] the band holds a third of
the t and about 70% of the time, since there each t sums both routes and
the direct one is a Python theta3' loop.  The evaluation stays one scalar t
per call, ``tunneling_overlap -> norm_squared -> theta3_prime``, because the
benchmark's tracer counts those calls and reads each ``norm_squared``
argument as one float; an array kernel over t waits for a tracer that
accepts arrays.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import MAX_ROWS, ConsistencyError, TruncationError
from .strata import Stratum
from .theta import theta3_prime

if TYPE_CHECKING:
    from .params import ModelParams

#: relative tolerance of the direct-vs-dual cross-check
_CROSSCHECK_RTOL = 1e-12
#: the dual route is taken below this t, the direct route at or above it
_DUAL_BELOW = 1.0
#: both routes are computed and cross-checked for t in this closed band
_BAND = (0.25, 2.0)
#: a dual sum stops at the first k whose exponential ratio is below this
_DUAL_CUTOFF = 1e-20
#: the largest last vertex weight a truncation may leave, relative to N
_TAIL_TOL = 1e-12
_PI2 = math.pi**2
_SQRT_PI = math.sqrt(math.pi)


def _agree(a: float, b: float, what: str) -> None:
    if abs(a - b) > _CROSSCHECK_RTOL * max(abs(a), abs(b)):
        raise ConsistencyError(f"{what}: chosen route {a!r} vs other route {b!r}")


def _norm_squared_direct(t: float) -> float:
    """N^2 = (1/2) e^-t theta3'(e^-t)."""
    # halving last keeps the product normal down to N^2 = e^-t at large t
    nome = math.exp(-t)
    return nome * theta3_prime(nome) / 2.0


def _alternating_direct(t: float) -> float:
    """S = (1/2) e^-t theta3'(-e^-t)."""
    nome = math.exp(-t)
    return nome * theta3_prime(-nome) / 2.0


def _norm_squared_dual(t: float) -> float:
    """N^2 = (sqrt(pi)/2) sum_{k in Z} e^(-pi^2 k^2/t) (t^(-3/2)/2 - pi^2 k^2 t^(-5/2)).

    Summed as (sqrt(pi)/4) t^(-3/2) [1 + 2 sum_{k>=1} (1 - 2x) e^-x] with
    x = pi^2 k^2 / t, so no higher power of t is formed.
    """
    total = 1.0
    k = 1
    while True:
        x = _PI2 * k * k / t
        ratio = math.exp(-x)
        if ratio < _DUAL_CUTOFF:
            return 0.25 * _SQRT_PI * t**-1.5 * total
        total += 2.0 * (1.0 - 2.0 * x) * ratio
        k += 1


def _alternating_dual(t: float) -> float:
    """S = (sqrt(pi)/2) sum_{k in Z} e^(-a_k/t) t^(-1/2) (a_k/t^2 - 1/(2t)), a_k = pi^2 (k+1/2)^2.

    k and -1-k give equal terms, and a_k - a_0 = pi^2 k (k+1), so this is
    sqrt(pi) t^(-3/2) e^(-a_0/t) sum_{k>=0} e^(-pi^2 k(k+1)/t) (a_k/t - 1/2).
    The sum stops on that ratio, which stays finite after e^(-a_0/t)
    underflows.  Once it has, S is 0: below t ~ 3e-206 the prefactor
    t^(-3/2) overflows, and inf * 0 would give nan.
    """
    total = _PI2 / (4.0 * t) - 0.5
    k = 1
    while True:
        ratio = math.exp(-_PI2 * k * (k + 1) / t)
        if ratio < _DUAL_CUTOFF:
            decay = math.exp(-_PI2 / (4.0 * t))
            if decay == 0.0:
                return 0.0
            return _SQRT_PI * t**-1.5 * decay * total
        total += ratio * (_PI2 * (k + 0.5) ** 2 / t - 0.5)
        k += 1


def _by_route(t: float, dual, direct, what: str) -> float:
    """The value of the route chosen by t, cross-checked against the other in the band."""
    if t < _DUAL_BELOW:
        value = dual(t)
        if t >= _BAND[0]:
            _agree(value, direct(t), what)
    else:
        value = direct(t)
        if t <= _BAND[1]:
            _agree(value, dual(t), what)
    return value


def norm_squared(t: float) -> float:
    """N^2 = sum_{n>=1} n^2 exp(-t n^2), by the dual route below t = 1 and the direct one above.

    Raises ``FloatingPointError``, naming t, where N^2 is not a normal
    double: above t ~ 708, where it underflows, and below t ~ 3e-206, where
    the dual route's t^(-3/2) overflows.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    try:
        n2 = _by_route(t, _norm_squared_dual, _norm_squared_direct, "norm_squared")
    except OverflowError:
        raise FloatingPointError(f"N^2 overflows a double at t={t}") from None
    if not sys.float_info.min <= n2 < math.inf:
        raise FloatingPointError(f"N^2 = {n2!r} is not a normal double at t={t}")
    return n2


def normalization_constant(t: float) -> float:
    """The positive normalization N of the vertex states."""
    return math.sqrt(norm_squared(t))


def default_trunc(t: float) -> int:
    """Truncation making the dropped vertex-state tail < 1e-16 of N^2."""
    return math.ceil(math.sqrt(80.0 / t)) + 8


def vertex_weights(stratum: Stratum, t: float, count: int) -> np.ndarray:
    """Unnormalized vertex-state coefficients sign^k (k+1) exp(-t (k+1)^2 / 2), k < count.

    ``sign`` is the stratum's sign (``ValueError`` for the top stratum).  A
    sign flip is exact, so both strata's weights have bit-identical magnitudes.
    """
    k = np.arange(1.0, count + 1.0)
    weights = k * np.exp(-t * k**2 / 2.0)
    if stratum.sign < 0:
        weights[1::2] *= -1.0
    return weights


def check_tail(t: float, weights: np.ndarray, norm: float) -> None:
    """Raise ``TruncationError`` where the last vertex weight is above ``_TAIL_TOL`` of N.

    The one rule for whether a truncation holds the vertex state at t, for
    the state itself and for its overlaps with eigenstates.
    """
    tail = abs(weights[-1]) / norm
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"vertex-state weight tail {tail:.2e} of N exceeds {_TAIL_TOL} at t={t} "
            f"with {len(weights)} rows; need at least {default_trunc(t)}"
        )


def check_rows(t: float, trunc: int) -> None:
    """Raise ``TruncationError`` where a vertex state at t would take more than ``MAX_ROWS`` rows.

    The one rule for the size of a vertex state's truncation, for the state
    itself and for a projector sweep, which reads the state at each t.
    """
    if trunc > MAX_ROWS:
        raise TruncationError(f"trunc={trunc:.4g} at t={t} is past {MAX_ROWS} rows")


def stratum_state(stratum: Stratum, t: float, trunc: int | None = None) -> np.ndarray:
    """Unit coefficients of the state spanning the stratum's quantum subspace at t = hbar beta2.

    A read-only 1-D float array in the orthonormal basis.  A truncation
    below one row raises ``ValueError``; one past ``MAX_ROWS`` rows, which
    the default one is below t ~ 2.91e-10, raises ``TruncationError``
    before anything is allocated; one whose last weight fails
    ``check_tail`` raises it too.
    """
    if trunc is None:
        trunc = default_trunc(t)
    elif trunc < 1:
        raise ValueError(f"a vertex state needs trunc >= 1, got {trunc}")
    n2 = norm_squared(t)  # first: below the N^2 edge the truncation is too large to allocate
    check_rows(t, trunc)
    weights = vertex_weights(stratum, t, trunc)
    norm = math.sqrt(n2)
    check_tail(t, weights, norm)
    state = weights / norm
    state.setflags(write=False)
    return state


def vertex_evaluation(coeffs: np.ndarray, stratum: Stratum, params: ModelParams) -> complex:
    """Evaluate the holomorphic realization of the state ``coeffs`` at the stratum's vertex.

    ``coeffs`` is a 1-D array in the orthonormal basis.  The n-th basis
    vector corresponds to the holomorphic character scaled by C_n^(-1/2),
    and the complex character at the +/- identity equals (+/-1)^n (n+1), so
    this sums the coefficients against ``vertex_weights``; it is zero
    exactly when the state belongs to that vertex's vanishing subspace.
    The scale (hbar pi)^(-3/4) depends on hbar itself, not on t alone, so
    this takes the physical ``params``.
    """
    weights = vertex_weights(stratum, params.t, len(coeffs))
    scale = (params.hbar * math.pi) ** -0.75
    return complex(scale * np.sum(coeffs * weights))


def project(coeffs: np.ndarray, stratum: Stratum, t: float) -> np.ndarray:
    """Orthogonal (rank-one) projection of the 1-D state ``coeffs`` onto the stratum subspace at t.

    The result has the larger of ``len(coeffs)`` and ``default_trunc(t)`` rows.
    """
    basis = stratum_state(stratum, t, trunc=max(len(coeffs), default_trunc(t)))
    return basis * complex(np.vdot(basis[: len(coeffs)], coeffs))


def vanishing_basis(stratum: Stratum, t: float, trunc: int) -> np.ndarray:
    """Unit column vectors spanning the vanishing subspace within the truncation.

    With v the vertex weights and the pivot p the index of the largest |v_j|,
    the columns are the normalized e_j - (v_j / v_p) e_p for j != p, in order
    of j.  Each vanishes at the stratum's vertex, and no ratio exceeds 1 in
    magnitude, so the columns stay finite over the documented range of t.
    """
    if trunc < 2:
        raise ValueError("need trunc >= 2 to span a vanishing subspace")
    weights = vertex_weights(stratum, t, trunc)
    pivot = int(np.argmax(np.abs(weights)))
    others = np.delete(np.arange(trunc), pivot)
    basis = np.zeros((trunc, trunc - 1))
    basis[others, np.arange(trunc - 1)] = 1.0
    basis[pivot] = -weights[others] / weights[pivot]
    return basis / np.linalg.norm(basis, axis=0)


def tunneling_overlap(t: float) -> float:
    """Inner product S / N^2 of the plus and minus vertex states.

    S = sum_{n>=1} (-1)^(n+1) n^2 exp(-t n^2) takes the same route as N^2.
    Positive; about 4 (pi^2/4t - 1/2) exp(-pi^2/4t) at small t, and
    tends to 1 as t grows.  Raises ``FloatingPointError`` where the overlap's
    square, the tunneling probability, is not a normal double (t below ~0.0069).
    """
    n2 = norm_squared(t)
    overlap = _by_route(t, _alternating_dual, _alternating_direct, "tunneling_overlap") / n2
    if not overlap * overlap >= sys.float_info.min:
        raise FloatingPointError(
            f"tunneling probability {overlap * overlap!r} is not a normal double at t={t}"
        )
    return overlap


def tunneling_probability(t: float) -> float:
    """Probability |overlap|^2 of measuring the other vertex's subspace."""
    overlap = tunneling_overlap(t)
    return overlap * overlap
