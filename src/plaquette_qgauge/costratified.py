"""Costratified structure of the reduced Hilbert space.

Each vertex stratum of the reduced phase space carries a one-dimensional
quantum subspace: the orthogonal complement of the states whose holomorphic
realization vanishes at that vertex.  The two subspaces are spanned by the
unit states (built in the abstract orthonormal basis, t = hbar * beta2)

    plus:   a_n =        (n+1) exp(-t (n+1)^2 / 2) / N
    minus:  a_n = (-1)^n (n+1) exp(-t (n+1)^2 / 2) / N

with N^2 = sum_{n>=1} n^2 exp(-t n^2).  N^2 and the overlap of the two states
also have closed forms in the theta constant, and every public quantity here
is computed through BOTH routes with a hard consistency cross-check; the
redundancy is nearly free and pins signs and conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .strata import Stratum
from .theta import theta3_prime

#: relative/absolute tolerance for the series-vs-theta cross-checks
_CROSSCHECK_TOL = 1e-10
_SERIES_CUTOFF = 1e-18
_MAX_TERMS = 100_000


class ConsistencyError(AssertionError):
    """The independent series and theta-constant routes disagree."""


class TruncationError(ValueError):
    """Requested truncation cannot represent the state to the target accuracy."""


@dataclass(frozen=True)
class StateVector:
    """Coefficient vector in the orthonormal basis, stamped with its parameters."""

    coeffs: np.ndarray
    params: ModelParams

    def __post_init__(self):
        vec = np.array(self.coeffs)
        if vec.ndim != 1 or len(vec) == 0:
            raise ValueError("coeffs must be a non-empty vector")
        if not np.all(np.isfinite(vec.view(float))):
            raise ValueError("coeffs must be finite")
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


def _agree(a: float, b: float, what: str) -> float:
    if abs(a - b) > _CROSSCHECK_TOL * max(1.0, abs(a), abs(b)):
        raise ConsistencyError(f"{what}: series route {a!r} vs theta route {b!r}")
    return a


def _norm_squared_series(t: float) -> float:
    total = 0.0
    for n in range(1, _MAX_TERMS):
        term = n * n * math.exp(-t * n * n)
        total += term
        if n >= 4 and term < _SERIES_CUTOFF * total:
            return total
    raise FloatingPointError(f"normalization series did not converge for t={t}")


def _overlap_series(t: float) -> float:
    total = 0.0
    for n in range(1, _MAX_TERMS):
        term = (-1.0) ** (n + 1) * n * n * math.exp(-t * n * n)
        total += term
        if n >= 4 and n * n * math.exp(-t * n * n) < _SERIES_CUTOFF * abs(total) + 1e-300:
            return total
    raise FloatingPointError(f"overlap series did not converge for t={t}")


def norm_squared(t: float) -> float:
    """N^2 = sum n^2 exp(-t n^2), cross-checked against (1/2) e^-t theta3'(e^-t)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    series = _norm_squared_series(t)
    via_theta = 0.5 * math.exp(-t) * theta3_prime(math.exp(-t))
    return _agree(series, via_theta, "norm_squared")


def normalization_constant(t: float) -> float:
    """The positive normalization N of the vertex states."""
    return math.sqrt(norm_squared(t))


def default_trunc(t: float) -> int:
    """Truncation making the dropped vertex-state tail < 1e-16 of N^2."""
    return math.ceil(math.sqrt(80.0 / t)) + 8


def vertex_weights(t: float, count: int) -> np.ndarray:
    """Unnormalized plus vertex-state coefficients (k+1) exp(-t (k+1)^2 / 2), k < count.

    The minus state and the vertex evaluation multiply them by signs +-1,
    which is exact, so every caller sees bit-identical weights.
    """
    k = np.arange(count)
    return (k + 1.0) * np.exp(-t * (k + 1.0) ** 2 / 2.0)


def stratum_state(stratum: Stratum, params: ModelParams, trunc: int | None = None) -> StateVector:
    """Unit state spanning the quantum subspace of the given vertex stratum."""
    sign = stratum.sign  # rejects Stratum.TOP
    t = params.t
    if trunc is None:
        trunc = default_trunc(t)
    n2 = norm_squared(t)
    if trunc * trunc * math.exp(-t * trunc * trunc) >= 1e-16 * n2:
        raise TruncationError(
            f"trunc={trunc} leaves a tail above 1e-16 * N^2 at t={t}; "
            f"need at least {default_trunc(t)}"
        )
    weights = vertex_weights(t, trunc)
    if sign < 0:
        weights = weights * (-1.0) ** np.arange(trunc)
    return StateVector(weights / math.sqrt(n2), params)


def vertex_evaluation(state: StateVector, stratum: Stratum, params: ModelParams) -> complex:
    """Evaluate the holomorphic realization of ``state`` at the stratum's vertex.

    The n-th basis vector corresponds to the holomorphic character scaled by
    C_n^(-1/2), and the complex character at the +/- identity equals
    (+/-1)^n (n+1); the result is zero exactly when the state belongs to the
    vanishing subspace of that vertex.
    """
    sign = stratum.sign
    factors = float(sign) ** np.arange(state.trunc) * vertex_weights(params.t, state.trunc)
    scale = (params.hbar * math.pi) ** -0.75
    return complex(scale * np.sum(state.coeffs * factors))


def project(state: StateVector, stratum: Stratum, params: ModelParams) -> StateVector:
    """Orthogonal (rank-one) projection of ``state`` onto the stratum subspace."""
    if abs(state.params.t - params.t) > 1e-12 * max(1.0, params.t):
        raise ValueError("state was built for different parameters")
    basis = stratum_state(stratum, params, trunc=max(state.trunc, default_trunc(params.t)))
    amplitude = complex(np.vdot(basis.coeffs[: state.trunc], state.coeffs))
    return StateVector(basis.coeffs * amplitude, params)


def vanishing_basis(stratum: Stratum, params: ModelParams, trunc: int) -> np.ndarray:
    """Unit column vectors spanning the vanishing subspace within the truncation.

    For the plus vertex the j-th column (j >= 1) is the normalized
    e_j - (j+1) exp(t(1 - (j+1)^2)/2) e_0; for the minus vertex, indices
    j in {0, 2, 3, ...} combine with e_1 instead.  Each column evaluates to
    zero at the corresponding vertex.
    """
    sign = stratum.sign
    t = params.t
    if trunc < 2:
        raise ValueError("need trunc >= 2 to span a vanishing subspace")
    columns = []
    if sign > 0:
        for j in range(1, trunc):
            vec = np.zeros(trunc)
            vec[j] = 1.0
            vec[0] = -(j + 1.0) * math.exp(t * (1.0 - (j + 1.0) ** 2) / 2.0)
            columns.append(vec / np.linalg.norm(vec))
    else:
        for j in [0, *range(2, trunc)]:
            vec = np.zeros(trunc)
            vec[j] = 1.0
            vec[1] = (-1.0) ** j * ((j + 1.0) / 2.0) * math.exp(t * (4.0 - (j + 1.0) ** 2) / 2.0)
            columns.append(vec / np.linalg.norm(vec))
    return np.column_stack(columns)


def tunneling_overlap(t: float) -> float:
    """Inner product of the plus and minus vertex states.

    Computed as sum_{n>=1} (-1)^(n+1) n^2 exp(-t n^2) / N^2 and cross-checked
    against theta3'(-e^-t) / theta3'(e^-t); the two are identical term by
    term.  Positive, and tends to 1 as t grows.
    """
    n2 = norm_squared(t)
    series = _overlap_series(t) / n2
    via_theta = theta3_prime(-math.exp(-t)) / theta3_prime(math.exp(-t))
    return _agree(series, via_theta, "tunneling_overlap")


def tunneling_probability(t: float) -> float:
    """Probability |overlap|^2 of measuring the other vertex's subspace."""
    overlap = tunneling_overlap(t)
    return overlap * overlap
