"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from plaquette_qgauge import Stratum, cli, costratified, mathieu, spectrum
from plaquette_qgauge.geometry import (
    canoe_table,
    in_restriction_kernel,
    jacobi_residual,
    monomial_decomposition,
    poisson_tensor,
    relation_casimir_residual,
    sample_canoe,
    sample_semicone,
    semicone_table,
    symmetric_projection,
)
from plaquette_qgauge.theta import theta3_prime

from oracles import bounded_partitions, shooting_characteristic_values

T_GRID = (0.5, 0.125, 0.03125)


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_free_theory_anchor():
    with criterion(1, "free-theory anchor", budget=1.0):
        for t in (0.125, 0.5):
            for n in range(10):
                value = spectrum.energy(n, 0.0)
                assert abs(value - 0.5 * n * (n + 2)) <= 1e-12
                state = spectrum.eigenstate(n, 0.0, trunc=costratified.default_trunc(t))[1]
                expected = np.zeros(len(state))
                expected[n] = 1.0
                assert np.array_equal(state, expected)


def test_criterion_2_dual_oracle_spectrum():
    with criterion(2, "dual-oracle spectrum", budget=10.0):
        # energies in units of hbar^2 beta2 depend on nu_tilde alone
        for nut in (3.0, 6.0, 12.0, 24.0):
            reference = spectrum.matrix_energies(nut, 10)
            for n in range(10):
                value = spectrum.energy(n, nut)
                assert abs(value - reference[n]) <= 1e-8 * max(1.0, abs(reference[n]))


def test_criterion_3_mathieu_vs_shooting_oracle():
    with criterion(3, "Mathieu solver vs shooting oracle"):
        q_values = (1.0, 4.0, 16.0, 48.0, 96.0)
        roots = shooting_characteristic_values(q_values, count=6)
        rng = np.random.default_rng(101)
        y_samples = rng.uniform(-math.pi / 2, 0.0, 50)
        for q in q_values:
            for n in range(6):
                sol = mathieu.solve(n, q)
                assert abs(roots[q][n] - sol.b) <= 1e-8 * abs(sol.b)
                assert abs(mathieu.se(n, q, 0.0)) < 1e-10
                assert abs(mathieu.se(n, q, -math.pi / 2)) < 1e-10
                ode = mathieu.se_second_derivative(sol.coeffs, y_samples) + (
                    sol.b - 2.0 * q * np.cos(2.0 * y_samples)
                ) * mathieu.se(n, q, y_samples)
                assert np.max(np.abs(ode)) < 1e-7


def test_criterion_4_normalization_and_tunneling_identities():
    with criterion(4, "normalization and tunneling identities", budget=5.0):
        # the direct (theta) and dual (Poisson-summed) routes, relative, over
        # the band where both are accurate and costratified cross-checks them
        for t in np.geomspace(0.25, 2.0, 60):
            t = float(t)
            n2_dual = costratified._norm_squared_dual(t)
            n2_theta = 0.5 * math.exp(-t) * theta3_prime(math.exp(-t))
            assert abs(n2_dual - n2_theta) <= 1e-12 * n2_dual
            overlap_dual = costratified._alternating_dual(t) / n2_dual
            overlap_theta = theta3_prime(-math.exp(-t)) / theta3_prime(math.exp(-t))
            assert abs(overlap_dual - overlap_theta) <= 1e-12 * overlap_dual
        with pytest.raises(FloatingPointError):
            costratified.tunneling_probability(0.005)
        assert costratified.tunneling_probability(0.01) < 1e-6
        assert costratified.tunneling_probability(5.0) > 0.99


def test_criterion_5_completeness():
    with criterion(5, "projector completeness", budget=60.0):
        nu_tildes = np.geomspace(0.1, 100.0, 30)
        plus, minus, completeness = spectrum.projector_expectations(T_GRID, nu_tildes, count=60)
        assert completeness.shape == (len(T_GRID), 30)
        assert np.all(completeness >= 1.0 - 1e-6)
        values = np.concatenate([plus, minus])
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


def test_criterion_6_free_theory_closed_form():
    with criterion(6, "free-theory closed form"):
        for t in T_GRID:
            n2 = costratified.norm_squared(t)
            for n in range(10):
                closed = (n + 1.0) ** 2 * math.exp(-t * (n + 1.0) ** 2) / n2
                value = spectrum.projector_expectation(n, t, 0.0, Stratum.PLUS)
                assert abs(value - closed) <= 1e-10


def test_criterion_7_geometry_suites():
    with criterion(7, "geometry suites", budget=5.0):
        rng = np.random.default_rng(211)
        for table, sampler in (
            (semicone_table(), sample_semicone),
            (canoe_table(), sample_canoe),
        ):
            f, g, h = (table.variable(name) for name in table.generators)
            for point in sampler(rng, 100):
                assert jacobi_residual(table, f, g, h, point) < 1e-9
                for name in table.generators:
                    assert relation_casimir_residual(table, name, point) < 1e-9

        canoe = canoe_table()
        for vertex in ((2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)):
            assert np.array_equal(poisson_tensor(canoe, vertex), np.zeros((3, 3)))
        for point in sample_canoe(rng, 100):
            if min(abs(complex(point[0], point[1]) - 2), abs(complex(point[0], point[1]) + 2)) < 1e-6:
                continue
            tensor = poisson_tensor(canoe, point)
            scale = float(np.max(np.abs(tensor)))
            assert np.linalg.matrix_rank(tensor, tol=1e-9 * max(1.0, scale)) == 2

        for s in (1, 2, 3):
            for ell in (1, 2, 3):
                q, p = np.moveaxis(rng.standard_normal((1000, 2, ell, s)), 1, 0)
                _, ranks = symmetric_projection(q, p)
                assert np.all(ranks <= min(s, ell))


def test_criterion_8_decomposition_counts():
    with criterion(8, "monomial decomposition counts"):
        for s in range(1, 7):
            for k in range(0, 21):
                assert len(monomial_decomposition(s, k)) == len(bounded_partitions(k, s))
        for s in range(2, 7):
            for k in range(0, 21):
                monomials = monomial_decomposition(s, k)
                kernel = [exps for exps in monomials if in_restriction_kernel(exps)]
                image = [exps for exps in monomials if not in_restriction_kernel(exps)]
                assert len(image) == len(monomial_decomposition(s - 1, k))
                # a kernel monomial is one part of size s on a degree k - s monomial
                expected = len(monomial_decomposition(s, k - s)) if k >= s else 0
                assert len(kernel) == expected


def test_criterion_9_orthonormality():
    with criterion(9, "orthonormality of eigenbases"):
        vectors = np.column_stack(
            [spectrum.eigenstate(n, 6.0, trunc=40)[1] for n in range(8)]
        )
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-9

        nodes, weights = np.polynomial.legendre.leggauss(512)
        y = -0.25 * math.pi * (nodes + 1.0)
        w = 0.25 * math.pi * weights
        funcs = np.column_stack([math.sqrt(2.0) * mathieu.se(n, 24.0, y) for n in range(8)])
        gram = (funcs * w[:, None]).T @ funcs * (2.0 / math.pi)
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-9


@pytest.fixture
def determinism_commands(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("n_max = 2\n")
    return [
        ["tunneling", "--hbar-beta2", "0.05:3:20:log"],
        ["spectrum", "--nu-tilde", "0,6", "--n-max", "4"],
        ["states", "--state", "xi", "--level", "1", "--nu-tilde", "3", "--grid", "65"],
        ["projector-expectations", "--config", str(config), "--hbar-beta2", "0.125", "--nu-tilde", "1,10"],
        ["decomp", "--s", "3", "--k", "6"],
        ["geometry-verify"],
        ["verify"],
    ]


def test_criterion_10_cli_determinism(determinism_commands, tmp_path):
    with criterion(10, "CLI determinism"):
        for index, command in enumerate(determinism_commands):
            outputs = []
            for attempt in (0, 1):
                path = tmp_path / f"out_{index}_{attempt}"
                code = cli.main([*command, "--out", str(path)])
                assert code == 0, f"command {command} exited {code}"
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1], f"non-deterministic output from {command}"
