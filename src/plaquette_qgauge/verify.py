"""Self-verification suites: geometry residuals, dual-oracle spectra, identities.

Each check returns a CheckResult with a deterministic one-line detail string;
the CLI renders them as a report.  All random sampling uses a fixed seed so
repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import characters, costratified, geometry, mathieu, spectrum
from .strata import Stratum

_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Draws:
    """Uniform and normal draws, all from the stdlib's ``random.Random(seed).random()``.

    Python keeps that stream fixed across versions, which numpy does not
    promise for its ``Generator`` (NEP 19), and ``numpy.random`` costs about
    14 ms and 5 MB to load.  ``uniform`` and ``standard_normal`` take the
    arguments of the ``Generator`` methods, so ``geometry.sample_semicone``
    and ``sample_canoe`` take this object in place of a generator.  The
    checks need generic points, not an exact distribution.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed).random

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        count = int(np.prod(size))
        unit = np.fromiter(islice(iter(self._random, None), count), float, count)
        return low + (high - low) * unit.reshape(size)

    def standard_normal(self, size) -> np.ndarray:
        # Box-Muller, both parts of each pair; 1 - u is in (0, 1], so the log
        # is finite
        count = int(np.prod(size))
        u, angle = self.uniform(0.0, 1.0, (2, -(-count // 2)))
        z = np.sqrt(-2.0 * np.log1p(-u)) * np.exp(2j * math.pi * angle)
        return np.concatenate([z.real, z.imag])[:count].reshape(size)


def _residual_check(name: str, residual: float, tol: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual <= tol, f"max_residual={residual!r} (tol {tol!r})")


def geometry_checks() -> list[CheckResult]:
    rng = _Draws(_SEED)
    out = []
    tables = {"semicone": geometry.semicone_table(), "canoe": geometry.canoe_table()}
    samplers = {"semicone": geometry.sample_semicone, "canoe": geometry.sample_canoe}
    for label, table in tables.items():
        points = samplers[label](rng, 100)
        gens = [table.variable(g) for g in table.generators]
        jac = geometry.jacobi_residual(table, gens[0], gens[1], gens[2], points)
        out.append(_residual_check(f"jacobi-{label}", jac, 1e-9))
        cas = max(
            geometry.relation_casimir_residual(table, name, points) for name in table.generators
        )
        out.append(_residual_check(f"casimir-{label}", cas, 1e-9))

    canoe = tables["canoe"]
    vertices = [(2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)]
    vertex_residual = float(np.max(np.abs(geometry.poisson_tensor(canoe, vertices))))
    points = samplers["canoe"](rng, 100)
    z = points[:, 0] + 1j * points[:, 1]
    tensors = geometry.poisson_tensor(canoe, points[(abs(z - 2) >= 1e-6) & (abs(z + 2) >= 1e-6)])
    tol = 1e-9 * np.maximum(1.0, np.max(np.abs(tensors), axis=(1, 2)))
    ranks_ok = bool(np.all(np.linalg.matrix_rank(tensors, tol=tol) == 2))
    out.append(
        CheckResult(
            "canoe-tensor-strata",
            vertex_residual == 0.0 and ranks_ok,
            f"vertex_residual={vertex_residual!r} nonvertex_rank2={ranks_ok}",
        )
    )

    worst_excess = 0
    for s in (1, 2, 3):
        for ell in (1, 2, 3):
            # one draw takes the normals of 1000 separate (q, p) draws in their
            # order, so the checks after this one see the same rng state
            q, p = np.moveaxis(rng.standard_normal((1000, 2, ell, s)), 1, 0)
            _, ranks = geometry.symmetric_projection(q, p)
            worst_excess = max(worst_excess, int(np.max(ranks)) - min(s, ell))
    out.append(
        CheckResult(
            "projection-rank-bound", worst_excess <= 0, f"max_rank_excess={worst_excess}"
        )
    )

    zs = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    zs = zs[np.abs(zs) > 1e-3]
    weyl = max(abs(geometry.reduce_point(z) - geometry.reduce_point(1.0 / z)) for z in zs)
    out.append(_residual_check("weyl-invariance", weyl, 1e-12))
    return out


def spectral_checks() -> list[CheckResult]:
    out = []

    levels = np.arange(10)
    energies, states = spectrum.eigenstates(levels, 0.0)
    worst = float(np.max(np.abs(energies - 0.5 * characters.laplace_eigenvalue(levels))))
    anchored = np.array_equal(states, np.eye(10, states.shape[1]))
    out.append(
        CheckResult(
            "free-theory-anchor",
            worst <= 1e-12 and anchored,
            f"max_residual={worst!r} states_exact={anchored}",
        )
    )

    worst = 0.0
    for nut in (3.0, 6.0, 12.0, 24.0):
        reference = spectrum.matrix_energies(nut, 10)
        # one request for the ten levels: they share one q and one truncation
        errors = np.abs(spectrum.energy(np.arange(10), nut) - reference)
        worst = max(worst, float(np.max(errors / np.maximum(1.0, np.abs(reference)))))
    out.append(_residual_check("dual-oracle-spectrum", worst, 1e-8))

    _, states = spectrum.eigenstates(np.arange(8), 6.0, trunc=40)
    gram = states @ states.T
    out.append(
        _residual_check(
            "eigenstate-orthonormality", float(np.max(np.abs(gram - np.eye(8)))), 1e-9
        )
    )

    # the interval realization sqrt(2) se(n, q, (x - pi)/2) of level n on [0, pi];
    # a product of two se(n, 24) has 60 sine terms at most (30 each, n < 8),
    # so its top frequency in x is 60 and 128 Gauss nodes integrate it to
    # rounding
    x, w = characters.quadrature_rule(128)
    y = (x - math.pi) / 2.0
    funcs = np.column_stack([math.sqrt(2.0) * row for row in mathieu.se(np.arange(8), 24.0, y)])
    gram = (funcs * w[:, None]).T @ funcs / math.pi
    out.append(
        _residual_check(
            "sine-elliptic-orthonormality", float(np.max(np.abs(gram - np.eye(8)))), 1e-9
        )
    )
    return out


def state_checks() -> list[CheckResult]:
    out = []
    # the direct and dual routes over the band where costratified cross-checks them
    band = np.geomspace(*costratified._BAND, 40)

    worst_norm = 0.0
    worst_overlap = 0.0
    for t in band:
        t = float(t)
        n2_direct = costratified._norm_squared_direct(t)
        n2_dual = costratified._norm_squared_dual(t)
        worst_norm = max(worst_norm, abs(n2_direct - n2_dual) / n2_dual)
        overlap_direct = costratified._alternating_direct(t) / n2_direct
        overlap_dual = costratified._alternating_dual(t) / n2_dual
        worst_overlap = max(worst_overlap, abs(overlap_direct - overlap_dual) / overlap_dual)
    out.append(_residual_check("normalization-identity", worst_norm, 1e-12))
    out.append(_residual_check("tunneling-identity", worst_overlap, 1e-12))

    low = costratified.tunneling_probability(0.01)
    high = costratified.tunneling_probability(5.0)
    out.append(
        CheckResult(
            "tunneling-limits",
            low < 1e-6 and high > 0.99,
            f"probability(0.01)={low!r} probability(5)={high!r}",
        )
    )

    plus, minus, completeness = spectrum.projector_expectations(
        (0.5, 0.125, 0.03125), np.geomspace(0.1, 100.0, 5), 6
    )
    worst_defect = max(0.0, float(np.max(1.0 - completeness)))
    values = np.concatenate([plus, minus])
    bounds_ok = bool(np.all((values >= 0.0) & (values <= 1.0)))
    out.append(
        CheckResult(
            "completeness",
            worst_defect <= 1e-6 and bounds_ok,
            f"max_defect={worst_defect!r} bounds_ok={bounds_ok}",
        )
    )

    worst = 0.0
    nu_tildes = (0.0, 6.0, 24.0)
    plus, minus, _ = spectrum.projector_expectations((0.125,), nu_tildes, 6)
    vertices = [costratified.stratum_state(s, 0.125) for s in (Stratum.PLUS, Stratum.MINUS)]
    for j, nut in enumerate(nu_tildes):
        # the two vertex states share a truncation, so one solve serves both
        _, states = spectrum.eigenstates(np.arange(6), nut, trunc=len(vertices[0]))
        for vertex, via_formula in zip(vertices, (plus[0, j], minus[0, j])):
            for n in range(6):
                via_vectors = float(np.vdot(vertex, states[n])) ** 2
                worst = max(worst, abs(via_vectors - via_formula[n]))
    out.append(_residual_check("projector-route-consistency", worst, 1e-12))

    worst = 0.0
    t_values = (0.5, 0.125, 0.03125)
    plus, _, _ = spectrum.projector_expectations(t_values, (0.0,), 10)
    for t, row in zip(t_values, plus[:, 0]):
        n2 = costratified.norm_squared(t)
        for n in range(10):
            closed = (n + 1.0) ** 2 * math.exp(-t * (n + 1.0) ** 2) / n2
            worst = max(worst, abs(row[n] - closed))
    out.append(_residual_check("free-theory-closed-form", worst, 1e-10))

    gap = abs(
        spectrum.projector_expectation(0, 0.125, 6.0, Stratum.PLUS)
        - spectrum.projector_expectation(0, 0.125, 6.0, Stratum.MINUS)
    )
    out.append(
        CheckResult("parity-separation", gap > 1e-6, f"separation={gap!r} (min 1e-06)")
    )

    # informational: how close the plus vertex state comes to the ground
    # state, reported as the peak of P_{+,0} over the coupling grid
    nu_tildes = np.geomspace(0.1, 100.0, 60)
    ground = spectrum.projector_expectations((0.125,), nu_tildes, 1)[0][0, :, 0]
    peak = int(np.argmax(ground))
    out.append(
        CheckResult(
            "ground-state-peak",
            True,
            f"max P_plus_0={float(ground[peak])!r} at nu_tilde={float(nu_tildes[peak])!r} "
            "(t=0.125, informational)",
        )
    )
    return out


def all_checks() -> list[CheckResult]:
    return geometry_checks() + spectral_checks() + state_checks()


def render_report(results: list[CheckResult], title: str) -> str:
    lines = [f"# plaquette-qgauge {title}"]
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        lines.append(f"[{tag}] {result.name:<32} {result.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"result: {passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
