"""Self-verification suites: geometry residuals, dual-oracle spectra, identities.

Each check returns a CheckResult with a deterministic one-line detail string;
the CLI renders them as a report.  All random sampling uses a fixed seed so
repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import characters, costratified, geometry, mathieu, spectrum
from .params import ModelParams
from .strata import Stratum

_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _residual_check(name: str, residual: float, tol: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual <= tol, f"max_residual={residual!r} (tol {tol!r})")


def geometry_checks() -> list[CheckResult]:
    rng = np.random.default_rng(_SEED)
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

    free = ModelParams.from_reduced(0.125, 0.0)
    worst = 0.0
    anchored = True
    for n in range(10):
        value = spectrum.energy(n, free) / free.hbar**2
        worst = max(worst, abs(value - 0.5 * characters.laplace_eigenvalue(n, free)))
        state = spectrum.eigenstate(n, free).state.coeffs
        expected = np.zeros(len(state))
        expected[n] = 1.0
        anchored = anchored and np.array_equal(np.asarray(state, dtype=float), expected)
    out.append(
        CheckResult(
            "free-theory-anchor",
            worst <= 1e-12 and anchored,
            f"max_residual={worst!r} states_exact={anchored}",
        )
    )

    worst = 0.0
    for t in (0.5, 0.125, 0.03125):
        for nut in (3.0, 6.0, 12.0, 24.0):
            params = ModelParams.from_reduced(t, nut)
            reference = spectrum.matrix_energies(params, 10)
            for n in range(10):
                e = spectrum.energy(n, params)
                worst = max(worst, abs(e - reference[n]) / max(1.0, abs(reference[n])))
    out.append(_residual_check("dual-oracle-spectrum", worst, 1e-8))

    params = ModelParams.from_reduced(0.125, 6.0)
    vectors = np.column_stack(
        [spectrum.eigenstate(n, params, trunc=40).state.coeffs for n in range(8)]
    )
    gram = vectors.T @ vectors
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
    funcs = np.column_stack([math.sqrt(2.0) * mathieu.se(n, 24.0, y) for n in range(8)])
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

    worst_defect = 0.0
    bounds_ok = True
    for t in (0.5, 0.125, 0.03125):
        for nut in np.geomspace(0.1, 100.0, 5):
            params = ModelParams.from_reduced(t, float(nut))
            plus, minus, completeness = spectrum.projector_expectations(params, 6)
            worst_defect = max(worst_defect, 1.0 - completeness)
            values = np.concatenate([plus, minus])
            bounds_ok = bounds_ok and bool(np.all((values >= 0.0) & (values <= 1.0)))
    out.append(
        CheckResult(
            "completeness",
            worst_defect <= 1e-6 and bounds_ok,
            f"max_defect={worst_defect!r} bounds_ok={bounds_ok}",
        )
    )

    worst = 0.0
    for nut in (0.0, 6.0, 24.0):
        params = ModelParams.from_reduced(0.125, nut)
        for stratum in (Stratum.PLUS, Stratum.MINUS):
            vertex = costratified.stratum_state(stratum, params)
            for n in range(6):
                state = spectrum.eigenstate(n, params, trunc=vertex.trunc).state
                via_vectors = abs(vertex.inner(state)) ** 2
                via_formula = spectrum.projector_expectation(n, params, stratum)
                worst = max(worst, abs(via_vectors - via_formula))
    out.append(_residual_check("projector-route-consistency", worst, 1e-12))

    worst = 0.0
    for t in (0.5, 0.125, 0.03125):
        params = ModelParams.from_reduced(t, 0.0)
        n2 = costratified.norm_squared(t)
        plus, _, _ = spectrum.projector_expectations(params, 10)
        for n in range(10):
            closed = (n + 1.0) ** 2 * math.exp(-t * (n + 1.0) ** 2) / n2
            worst = max(worst, abs(plus[n] - closed))
    out.append(_residual_check("free-theory-closed-form", worst, 1e-10))

    params = ModelParams.from_reduced(0.125, 6.0)
    gap = abs(
        spectrum.projector_expectation(0, params, Stratum.PLUS)
        - spectrum.projector_expectation(0, params, Stratum.MINUS)
    )
    out.append(
        CheckResult("parity-separation", gap > 1e-6, f"separation={gap!r} (min 1e-06)")
    )

    # informational: how close the plus vertex state comes to the ground
    # state, reported as the peak of P_{+,0} over the coupling grid
    best = (0.0, 0.0)
    for nut in np.geomspace(0.1, 100.0, 60):
        plus, _, _ = spectrum.projector_expectations(ModelParams.from_reduced(0.125, float(nut)), 1)
        if plus[0] > best[0]:
            best = (float(plus[0]), float(nut))
    out.append(
        CheckResult(
            "ground-state-peak",
            True,
            f"max P_plus_0={best[0]!r} at nu_tilde={best[1]!r} (t=0.125, informational)",
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
