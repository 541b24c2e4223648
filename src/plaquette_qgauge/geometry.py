"""Classical side: Poisson algebras of the reduced spaces, monomial bases.

Two reduced phase spaces appear as real semi-algebraic sets with polynomial
Poisson structures on their generators:

* the semicone (zero-angular-momentum plane): generators (x, y, r) with the
  relation x^2 + y^2 = r^2, r >= 0, and brackets
  {x, y} = 2r, {x, r} = 2y, {y, r} = -2x;

* the canoe (single-plaquette reduced space): generators (X, Y, tau) with
  the relation Y^2 = (X^2 + Y^2 + 4(tau - 1)) tau, tau >= 0, and brackets
  {X, Y} = X^2 + Y^2 + 4(2 tau - 1), {X, tau} = 2(1 - tau) Y,
  {Y, tau} = 2 tau X.

A table stores each generator bracket once, as Pi_ij = {x_i, x_j} for the
pairs i < j.  Brackets of arbitrary polynomials follow by the Leibniz rule,
as the sum over those pairs

    {f, g} = sum_{i<j} (d_i f d_j g - d_j f d_i g) Pi_ij,

with each partial derivative taken once.  Phase points are plain float
vectors in generator order; a polynomial, the on-variety guard and the
residual checks also take an (m, generators) array with one point per row.

The module also carries the rank-stratified projection of ell particles in
R^s onto complex symmetric ell x ell matrices, over stacks of
configurations, and the enumeration of highest-weight monomials of the
degree-k polynomial representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_VARIETY_TOL = 1e-10  # on-variety precondition, relative to the relation's term sizes
_RANK_RTOL = 1e-10  # singular values below this fraction of the largest count as zero
_SAMPLE_SCALE = 10.0  # the samplers draw plane coordinates in [-10, 10]


class OffVarietyError(ValueError):
    """A phase point violates the defining relations of the reduced space."""


@dataclass(frozen=True)
class PolyFunction:
    """Real polynomial in named generators, stored as {exponent tuple: coefficient}."""

    generators: tuple[str, ...]
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        for exps in self.terms:
            if len(exps) != len(self.generators):
                raise ValueError(f"exponent tuple {exps} does not match {self.generators}")
        object.__setattr__(self, "terms", {e: c for e, c in self.terms.items() if c != 0.0})

    @classmethod
    def zero(cls, generators) -> "PolyFunction":
        return cls(tuple(generators), {})

    @classmethod
    def constant(cls, generators, value: float) -> "PolyFunction":
        generators = tuple(generators)
        return cls(generators, {(0,) * len(generators): float(value)})

    @classmethod
    def variable(cls, generators, name: str) -> "PolyFunction":
        generators = tuple(generators)
        if name not in generators:
            raise KeyError(f"unknown generator {name!r}; table has {generators}")
        exps = tuple(1 if g == name else 0 for g in generators)
        return cls(generators, {exps: 1.0})

    def _require_same(self, other: "PolyFunction"):
        if self.generators != other.generators:
            raise ValueError(f"generator mismatch: {self.generators} vs {other.generators}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = PolyFunction.constant(self.generators, other)
        self._require_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return PolyFunction(self.generators, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyFunction(self.generators, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = PolyFunction.constant(self.generators, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return PolyFunction(self.generators, {e: other * c for e, c in self.terms.items()})
        self._require_same(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return PolyFunction(self.generators, terms)

    __rmul__ = __mul__

    def diff(self, name: str) -> "PolyFunction":
        idx = self.generators.index(name) if name in self.generators else -1
        if idx < 0:
            raise KeyError(f"unknown generator {name!r}; table has {self.generators}")
        terms: dict = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == 0:
                continue
            lowered = list(exps)
            lowered[idx] -= 1
            key = tuple(lowered)
            terms[key] = terms.get(key, 0.0) + coeff * exps[idx]
        return PolyFunction(self.generators, terms)

    def __call__(self, points):
        """Value at one point (a float), or at each row of an (m, generators) array."""
        values = np.asarray(points, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != len(self.generators):
            raise ValueError(
                f"points must have {len(self.generators)} coordinates, got shape {values.shape}"
            )
        total = np.zeros(values.shape[:-1])
        for exps, coeff in self.terms.items():
            total += coeff * np.prod(values ** np.array(exps), axis=-1)
        return float(total) if values.ndim == 1 else total


@dataclass(frozen=True)
class PoissonTable:
    """Generator names, the brackets {x_i, x_j} keyed by (i, j) with i < j, and the relations."""

    generators: tuple[str, ...]
    pair_brackets: dict
    relations: tuple[PolyFunction, ...]

    def variable(self, name: str) -> PolyFunction:
        return PolyFunction.variable(self.generators, name)

    def require_on_variety(self, points):
        """Raise OffVarietyError unless every point (or array row) satisfies the relations."""
        # residual is judged relative to the size of the relation's terms, so
        # the guard works at any coordinate scale
        rows = np.atleast_2d(np.asarray(points, dtype=float))
        for rel in self.relations:
            scale = PolyFunction(rel.generators, {e: abs(c) for e, c in rel.terms.items()})(
                np.abs(rows)
            )
            residual = np.abs(rel(rows))
            bad = residual > _VARIETY_TOL * np.maximum(1.0, scale)
            if bad.any():
                i = int(np.argmax(bad))
                raise OffVarietyError(f"point {rows[i]} violates a relation by {residual[i]:.3e}")


def semicone_table() -> PoissonTable:
    gens = ("x", "y", "r")
    x, y, r = (PolyFunction.variable(gens, g) for g in gens)
    return PoissonTable(
        generators=gens,
        pair_brackets={(0, 1): 2 * r, (0, 2): 2 * y, (1, 2): -2 * x},
        relations=(x * x + y * y - r * r,),
    )


def canoe_table() -> PoissonTable:
    gens = ("X", "Y", "tau")
    X, Y, tau = (PolyFunction.variable(gens, g) for g in gens)
    return PoissonTable(
        generators=gens,
        pair_brackets={
            (0, 1): X * X + Y * Y + 8 * tau - 4,
            (0, 2): 2 * Y - 2 * tau * Y,
            (1, 2): 2 * tau * X,
        },
        relations=(Y * Y - (X * X + Y * Y + 4 * tau - 4) * tau,),
    )


def bracket(table: PoissonTable, f: PolyFunction, g: PolyFunction) -> PolyFunction:
    """Poisson bracket {f, g}: sum over the pairs i < j of (d_i f d_j g - d_j f d_i g) Pi_ij."""
    if f.generators != table.generators or g.generators != table.generators:
        raise ValueError("polynomials must be over the table's generators")
    df = [f.diff(name) for name in table.generators]
    dg = [g.diff(name) for name in table.generators]
    out = PolyFunction.zero(table.generators)
    for (i, j), pair in table.pair_brackets.items():
        out = out + (df[i] * dg[j] - df[j] * dg[i]) * pair
    return out


def _max_abs(values) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def jacobi_residual(
    table: PoissonTable, f: PolyFunction, g: PolyFunction, h: PolyFunction, points
) -> float:
    """Largest |{f,{g,h}} + {g,{h,f}} + {h,{f,g}}| over on-variety points (one or an array)."""
    table.require_on_variety(points)
    total = (
        bracket(table, f, bracket(table, g, h))
        + bracket(table, g, bracket(table, h, f))
        + bracket(table, h, bracket(table, f, g))
    )
    return _max_abs(total(points))


def relation_casimir_residual(table: PoissonTable, name: str, points) -> float:
    """Largest |{generator, relation}| over on-variety points; zero iff the ideal is Poisson."""
    table.require_on_variety(points)
    gen = table.variable(name)
    return max(_max_abs(bracket(table, gen, rel)(points)) for rel in table.relations)


def poisson_tensor(table: PoissonTable, points) -> np.ndarray:
    """Antisymmetric matrix of generator brackets at a point, or one per array row."""
    values = np.asarray(points, dtype=float)
    m = len(table.generators)
    out = np.zeros(values.shape[:-1] + (m, m))
    for (i, j), pair in table.pair_brackets.items():
        out[..., i, j] = pair(values)
        out[..., j, i] = -out[..., i, j]
    return out


def canoe_tau(X, Y):
    """The non-smooth generator tau as a function of the plane coordinates.

    tau = sqrt(Y^2 + (X^2+Y^2-4)^2/16)/2 - (X^2+Y^2-4)/8 >= 0, the unique
    non-negative root of the canoe relation at (X, Y); elementwise on arrays.
    """
    s = X * X + Y * Y - 4.0
    return 0.5 * np.sqrt(Y * Y + s * s / 16.0) - s / 8.0


def sample_semicone(rng, count: int) -> np.ndarray:
    """On-variety semicone points (x, y, r) with plane coordinates in [-10, 10].

    ``rng`` is a numpy ``Generator`` or anything with its ``uniform(low,
    high, size)``.
    """
    xy = rng.uniform(-_SAMPLE_SCALE, _SAMPLE_SCALE, size=(count, 2))
    r = np.hypot(xy[:, 0], xy[:, 1])
    return np.column_stack([xy, r])


def sample_canoe(rng, count: int) -> np.ndarray:
    """On-variety canoe points (X, Y, tau) with plane coordinates in [-10, 10].

    ``rng`` is as for ``sample_semicone``.
    """
    xy = rng.uniform(-_SAMPLE_SCALE, _SAMPLE_SCALE, size=(count, 2))
    return np.column_stack([xy, canoe_tau(xy[:, 0], xy[:, 1])])


def reduce_point(z: complex) -> complex:
    """Quotient map z -> z + 1/z from the punctured plane onto the reduced space."""
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("reduce_point is undefined at z = 0")
    return z + 1.0 / z


def symmetric_projection(q, p) -> tuple[np.ndarray, np.ndarray]:
    """Complex symmetric matrices (q_j + i p_j).(q_k + i p_k) and their numerical ranks.

    q and p hold the positions and momenta of ell particles in R^s, one per
    row: one (ell, s) configuration or a (..., ell, s) stack, which one SVD
    call covers.  The bilinear (not hermitian) products make each ell x ell
    matrix symmetric, and its rank is at most min(s, ell); singular values
    below 1e-10 of the largest count as zero, so the zero matrix has rank 0.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != p.shape or q.ndim < 2:
        raise ValueError(f"q and p must be equal (..., ell, s) shapes, got {q.shape} vs {p.shape}")
    z = q + 1j * p
    m = z @ np.swapaxes(z, -1, -2)
    svals = np.linalg.svd(m, compute_uv=False)
    return m, np.sum(svals > _RANK_RTOL * svals[..., :1], axis=-1)


def monomial_decomposition(s: int, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples (a_1, ..., a_s) with sum_m m * a_m = k, in descending lexicographic order.

    These label the irreducible constituents of the degree-k polynomials on
    symmetric matrices surviving restriction to rank <= s; their count is the
    number of partitions of k into parts of size at most s.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")

    def rec(part: int, remaining: int) -> list[tuple[int, ...]]:
        # no later part fits: the rest of the exponents are 0, or nothing completes
        if remaining < part:
            return [(0,) * (s - part + 1)] if remaining == 0 else []
        if part == s:
            if remaining % s == 0:
                return [(remaining // s,)]
            return []
        out = []
        for a in range(remaining // part, -1, -1):
            for tail in rec(part + 1, remaining - a * part):
                out.append((a, *tail))
        return out

    return rec(1, k)


def in_restriction_kernel(exps: tuple[int, ...]) -> bool:
    """Whether the monomial with exponents (a_1, ..., a_s) dies under restriction to rank <= s-1.

    It does when s >= 2 and its last exponent is positive; the rest map
    isomorphically onto the rank s-1 enumeration.
    """
    return len(exps) >= 2 and exps[-1] >= 1
