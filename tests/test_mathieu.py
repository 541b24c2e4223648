import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaquette_qgauge import ModelParams, mathieu, spectrum

from oracles import shooting_characteristic_values


class TestFreeCase:
    def test_characteristic_values(self):
        assert mathieu.solve(0, 0.0).b == 4.0
        assert mathieu.solve(3, 0.0).b == 64.0

    def test_coefficients_are_exact_basis_vectors(self):
        for n in (0, 2, 5):
            sol = mathieu.solve(n, 0.0)
            expected = np.zeros(sol.trunc)
            expected[n] = 1.0
            assert np.array_equal(sol.coeffs, expected)

    def test_se_reduces_to_sine(self):
        y = np.linspace(-math.pi / 2, 0.0, 25)
        assert np.max(np.abs(mathieu.se(0, 0.0, y) - np.sin(2.0 * y))) == 0.0


class TestSolve:
    @pytest.mark.parametrize("q", [1.0, 4.0, 16.0, 48.0, 96.0])
    def test_recurrence_residual(self, q):
        for n in range(10):
            assert mathieu.solve(n, q).recurrence_residual() < 1e-10

    @pytest.mark.parametrize("q", [0.0, 1.0, 4.0, 16.0, 48.0, 96.0])
    def test_characteristic_values_strictly_ordered(self, q):
        values = [mathieu.solve(n, q).b for n in range(10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_normalization(self):
        for q in (1.0, 24.0, 96.0):
            sol = mathieu.solve(3, q)
            assert abs(np.sum(sol.coeffs**2) - 1.0) < 1e-12

    def test_sign_anchor_positive(self):
        for q in (1.0, 4.0, 16.0, 24.0):
            for n in range(8):
                assert mathieu.solve(n, q).coeffs[n] > 0.0

    def test_continuity_in_q(self):
        # consecutive solutions along a q grid overlap positively
        for n in range(8):
            previous = None
            for q in np.arange(0.0, 24.5, 0.5):
                sol = mathieu.solve(n, float(q), trunc=40)
                if previous is not None:
                    assert float(np.dot(previous, sol.coeffs)) > 0.0
                previous = sol.coeffs

    def test_sign_continuous_up_to_large_q(self):
        # c_n changes sign at larger q (level 2 first, near q = 32); the
        # anchor se'(-pi/2) never vanishes, so no level may flip between
        # neighbouring q (the smallest neighbour overlap here is 0.86)
        previous = None
        for q in np.geomspace(0.01, 2e6, 200):
            sols = mathieu.solve_many(12, float(q))
            if previous is not None:
                for before, after in zip(previous, sols):
                    m = min(before.trunc, after.trunc)
                    assert float(np.dot(before.coeffs[:m], after.coeffs[:m])) > 0.5
            previous = sols

    def test_small_trunc_rejected(self):
        # a truncation must hold the highest requested level
        with pytest.raises(ValueError, match="cannot hold level"):
            mathieu.solve(5, 4.0, trunc=5)
        with pytest.raises(ValueError, match="cannot hold level"):
            mathieu.solve_many(6, 4.0, trunc=5)

    def test_explicit_small_trunc_grows(self):
        sol = mathieu.solve(0, 200.0, trunc=16)
        assert sol.trunc == 32 and sol.tail <= 1e-12

    def test_explicit_trunc_shares_the_default_eigensystem(self):
        # trunc=10 doubles to 20 rows, the default truncation at q = 4
        assert mathieu.solve(2, 4.0, trunc=10) is mathieu.solve(2, 4.0)

    def test_auto_trunc_keeps_tail_small(self):
        assert mathieu.solve(0, 200.0).tail <= 1e-12

    def test_solutions_are_cached_and_frozen(self):
        first = mathieu.solve(1, 4.0)
        assert mathieu.solve(1, 4.0) is first
        with pytest.raises(ValueError):
            first.coeffs[0] = 0.0

    def test_solve_many_matches_individual_solves(self):
        for q in (24.0, 2000.0, 8000.0):
            many = mathieu.solve_many(6, q)
            for n in range(6):
                single = mathieu.solve(n, q)
                assert math.isclose(many[n].b, single.b, rel_tol=1e-13)
                m = min(many[n].trunc, single.trunc)
                assert np.max(np.abs(many[n].coeffs[:m] - single.coeffs[:m])) < 1e-12

    def test_solve_many_grows_an_explicit_starting_trunc(self):
        # trunc=16 leaves a fat tail at q = 200, so it doubles
        sols = mathieu.solve_many(3, 200.0, trunc=16)
        assert sols[0].trunc > 16 and max(s.tail for s in sols) <= 1e-12

    def test_one_eigensolve_for_all_levels_at_one_q(self, monkeypatch):
        calls = []
        original = mathieu.scipy.linalg.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(mathieu.scipy.linalg, "eigh_tridiagonal", counting)
        # start from empty caches, whatever earlier tests left in them
        for cached in [f for f in vars(mathieu).values() if hasattr(f, "cache_clear")]:
            cached.cache_clear()
        params = ModelParams.from_reduced(1.0, 2000.0)
        for n in range(41):
            spectrum.energy(n, params)
        assert len(calls) == 1

    def test_partial_eigensystem_matches_full(self):
        # trunc = 600 computes only the lowest levels, grown past the first
        # block; the default truncations here are diagonalized in full
        for q in (24.0, 200.0):
            for n in range(40):
                partial = mathieu.solve(n, q, trunc=600)
                full = mathieu.solve(n, q)
                assert abs(partial.b - full.b) <= 1e-13 * max(1.0, abs(full.b))
                assert np.max(np.abs(partial.coeffs[: full.trunc] - full.coeffs)) < 1e-12

    def test_large_q_memory_and_work_stay_bounded(self, monkeypatch):
        # default_trunc at q = 4e6 is 4016 rows; a full eigendecomposition
        # would hold a 129 MB eigenvector matrix
        columns = []
        original = mathieu.scipy.linalg.eigh_tridiagonal

        def recording(*args, **kwargs):
            w, v = original(*args, **kwargs)
            columns.append(v.shape[1])
            return w, v

        monkeypatch.setattr(mathieu.scipy.linalg, "eigh_tridiagonal", recording)
        mathieu._eigensystem.cache_clear()
        q = 4e6
        tracemalloc.start()
        try:
            sols = [mathieu.solve(n, q) for n in range(4)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sols[0].trunc == 4016
        assert sum(columns) <= 16 and peak < 16e6
        h = math.sqrt(q)
        for n, sol in enumerate(sols):
            # large-q expansion of b_{2n+2}, DLMF 28.8.1 with s = 4n + 3
            s = 4 * n + 3
            expected = (
                -2.0 * q
                + 2.0 * s * h
                - (s * s + 1) / 8.0
                - (s**3 + 3 * s) / (2**7 * h)
                - (5 * s**4 + 34 * s * s + 9) / (2**12 * q)
            )
            assert math.isclose(sol.b, expected, rel_tol=1e-12)
            assert sol.tail <= 1e-12

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=6), st.floats(min_value=0.0, max_value=30.0))
    def test_solution_properties_hold_generically(self, n, q):
        sol = mathieu.solve(n, q)
        assert sol.recurrence_residual() < 1e-10
        assert abs(float(np.sum(sol.coeffs**2)) - 1.0) < 1e-12
        if n > 0:
            assert mathieu.solve(n - 1, q).b < sol.b


class TestSineElliptic:
    @pytest.mark.parametrize("q", [1.0, 4.0, 16.0])
    def test_boundary_conditions(self, q):
        for n in range(9):
            sol = mathieu.solve(n, q)
            assert abs(sol.se(0.0)) < 1e-10
            assert abs(sol.se(-math.pi / 2)) < 1e-10

    @pytest.mark.parametrize("q", [1.0, 16.0, 96.0])
    def test_ode_residual(self, q):
        rng = np.random.default_rng(3)
        y = rng.uniform(-math.pi / 2, 0.0, 50)
        for n in range(6):
            sol = mathieu.solve(n, q)
            residual = sol.se_second_derivative(y) + (sol.b - 2.0 * q * np.cos(2.0 * y)) * sol.se(y)
            assert np.max(np.abs(residual)) < 1e-7

    def test_orthonormality_at_q24(self):
        nodes, weights = np.polynomial.legendre.leggauss(512)
        y = -0.25 * math.pi * (nodes + 1.0)
        w = 0.25 * math.pi * weights
        funcs = np.column_stack([math.sqrt(2.0) * mathieu.se(n, 24.0, y) for n in range(8)])
        gram = (funcs * w[:, None]).T @ funcs * (2.0 / math.pi)
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9


class TestShootingOracleSmoke:
    def test_small_parameters(self):
        roots = shooting_characteristic_values([1.0, 4.0], count=3, nsteps=3000)
        for q, values in roots.items():
            for n in range(3):
                b = mathieu.solve(n, q).b
                assert abs(values[n] - b) / abs(b) < 1e-8
