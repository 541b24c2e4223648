"""Costratified structure of the reduced Hilbert space.

Each vertex stratum of the reduced phase space carries a one-dimensional
quantum subspace: the orthogonal complement of the states whose holomorphic
realization vanishes at that vertex.  The two subspaces are spanned by the
unit states (built in the abstract orthonormal basis, t = hbar * beta2)

    plus:   a_n =        (n+1) exp(-t (n+1)^2 / 2) / N
    minus:  a_n = (-1)^n (n+1) exp(-t (n+1)^2 / 2) / N

with N^2 = sum_{n>=1} n^2 exp(-t n^2).  Their overlap is S / N^2 with the
alternating sum S = sum_{n>=1} (-1)^(n+1) n^2 exp(-t n^2).

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
not a normal double (N^2 for t above ~708, the tunneling probability for t
below ~0.0069) raises ``FloatingPointError`` instead of printing underflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, TruncationError
from .params import ModelParams
from .strata import Stratum
from .theta import theta3_prime

#: relative tolerance of the direct-vs-dual cross-check
_CROSSCHECK_RTOL = 1e-12
#: the dual route is taken below this t, the direct route at or above it
_DUAL_BELOW = 1.0
#: both routes are computed and cross-checked for t in this closed band
_BAND = (0.25, 2.0)
#: a dual sum stops at the first k whose exponential ratio is below this
_DUAL_CUTOFF = 1e-20
_PI2 = math.pi**2
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class StateVector:
    """Coefficient vector in the orthonormal basis, stamped with its parameters."""

    coeffs: np.ndarray
    params: ModelParams

    def __post_init__(self):
        vec = np.array(self.coeffs)
        if vec.ndim != 1 or len(vec) == 0:
            raise ValueError("coeffs must be a non-empty vector")
        if not np.all(np.isfinite(vec)):
            raise ValueError("coeffs must be finite")
        if vec.dtype.kind in "iu":
            vec = vec.astype(float)
        vec.setflags(write=False)
        object.__setattr__(self, "coeffs", vec)

    @property
    def trunc(self) -> int:
        return len(self.coeffs)

    @property
    def tail(self) -> float:
        """Magnitude of the last stored coefficient (truncation diagnostic)."""
        return abs(complex(self.coeffs[-1]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "StateVector") -> complex:
        """Inner product, conjugate-linear in self (the first slot)."""
        m = min(self.trunc, other.trunc)
        return complex(np.vdot(self.coeffs[:m], other.coeffs[:m]))

    @classmethod
    def basis_state(cls, n: int, params: ModelParams, trunc: int) -> "StateVector":
        if not 0 <= n < trunc:
            raise ValueError(f"need 0 <= n < trunc, got n={n}, trunc={trunc}")
        vec = np.zeros(trunc)
        vec[n] = 1.0
        return cls(vec, params)


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
    underflows.
    """
    total = _PI2 / (4.0 * t) - 0.5
    k = 1
    while True:
        ratio = math.exp(-_PI2 * k * (k + 1) / t)
        if ratio < _DUAL_CUTOFF:
            return _SQRT_PI * t**-1.5 * math.exp(-_PI2 / (4.0 * t)) * total
        total += ratio * (_PI2 * (k + 0.5) ** 2 / t - 0.5)
        k += 1


def _by_route(t: float, dual, direct, what: str) -> float:
    """The value of the route chosen by t, cross-checked against the other in the band."""
    chosen, other = (dual, direct) if t < _DUAL_BELOW else (direct, dual)
    value = chosen(t)
    if _BAND[0] <= t <= _BAND[1]:
        _agree(value, other(t), what)
    return value


def norm_squared(t: float) -> float:
    """N^2 = sum_{n>=1} n^2 exp(-t n^2), by the dual route below t = 1 and the direct one above.

    Raises ``FloatingPointError`` where N^2 is not a normal double (t above
    ~708), and ``OverflowError`` where t^(-3/2) overflows (t below ~1e-205).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    n2 = _by_route(t, _norm_squared_dual, _norm_squared_direct, "norm_squared")
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


def stratum_state(stratum: Stratum, params: ModelParams, trunc: int | None = None) -> StateVector:
    """Unit state spanning the quantum subspace of the given vertex stratum."""
    t = params.t
    if trunc is None:
        trunc = default_trunc(t)
    weights = vertex_weights(stratum, t, trunc)
    n2 = norm_squared(t)
    if trunc * trunc * math.exp(-t * trunc * trunc) >= 1e-16 * n2:
        raise TruncationError(
            f"trunc={trunc} leaves a tail above 1e-16 * N^2 at t={t}; "
            f"need at least {default_trunc(t)}"
        )
    return StateVector(weights / math.sqrt(n2), params)


def vertex_evaluation(state: StateVector, stratum: Stratum, params: ModelParams) -> complex:
    """Evaluate the holomorphic realization of ``state`` at the stratum's vertex.

    The n-th basis vector corresponds to the holomorphic character scaled by
    C_n^(-1/2), and the complex character at the +/- identity equals
    (+/-1)^n (n+1), so this sums the coefficients against ``vertex_weights``;
    it is zero exactly when the state belongs to that vertex's vanishing subspace.
    """
    weights = vertex_weights(stratum, params.t, state.trunc)
    scale = (params.hbar * math.pi) ** -0.75
    return complex(scale * np.sum(state.coeffs * weights))


def project(state: StateVector, stratum: Stratum, params: ModelParams) -> StateVector:
    """Orthogonal (rank-one) projection of ``state`` onto the stratum subspace."""
    if abs(state.params.t - params.t) > 1e-12 * max(1.0, params.t):
        raise ValueError("state was built for different parameters")
    basis = stratum_state(stratum, params, trunc=max(state.trunc, default_trunc(params.t)))
    amplitude = complex(np.vdot(basis.coeffs[: state.trunc], state.coeffs))
    return StateVector(basis.coeffs * amplitude, params)


def vanishing_basis(stratum: Stratum, params: ModelParams, trunc: int) -> np.ndarray:
    """Unit column vectors spanning the vanishing subspace within the truncation.

    With v the vertex weights and the pivot p the index of the largest |v_j|,
    the columns are the normalized e_j - (v_j / v_p) e_p for j != p, in order
    of j.  Each vanishes at the stratum's vertex, and no ratio exceeds 1 in
    magnitude, so the columns stay finite over the documented range of t.
    """
    if trunc < 2:
        raise ValueError("need trunc >= 2 to span a vanishing subspace")
    weights = vertex_weights(stratum, params.t, trunc)
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
