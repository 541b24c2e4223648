import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from plaquette_qgauge import ModelParams, characters, mathieu, spectrum

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

    def test_tiny_explicit_trunc_grows_as_far_as_the_default(self):
        # growth is capped by size, 32 x default_trunc (64,512 rows here),
        # so even a one-row start reaches a converged truncation
        sol = mathieu.solve(0, 1e6, trunc=1)
        assert sol.tail <= 1e-12
        assert abs(sol.b - mathieu.solve(0, 1e6).b) <= 1e-13 * abs(sol.b)

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
        original = scipy.linalg.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
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
        original = scipy.linalg.eigh_tridiagonal

        def recording(*args, **kwargs):
            w, v = original(*args, **kwargs)
            columns.append(v.shape[1])
            return w, v

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
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

    @pytest.mark.parametrize(
        "n, q, trunc",
        [(0, 4e20, None), (0, 4e300, None), (0, 1.0, mathieu._MAX_ROWS + 1), (2**20, 0.0, None)],
    )
    def test_row_bound_refuses_before_allocating(self, n, q, trunc, monkeypatch):
        def unexpected(*args):
            raise AssertionError("eigensystem built past the row bound")

        monkeypatch.setattr(mathieu, "_eigensystem", unexpected)
        with pytest.raises(mathieu.ConvergenceError, match=f"over {mathieu._MAX_ROWS} rows"):
            mathieu.solve(n, q, trunc=trunc)

    def test_row_bound_holds_the_default_truncation_at_nu_tilde_1e10(self):
        assert mathieu.default_trunc(0, 4e10) <= mathieu._MAX_ROWS
        assert mathieu.default_trunc(0, 4 * 1.72e10) > mathieu._MAX_ROWS

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=6), st.floats(min_value=0.0, max_value=30.0))
    def test_solution_properties_hold_generically(self, n, q):
        sol = mathieu.solve(n, q)
        assert sol.recurrence_residual() < 1e-10
        assert abs(float(np.sum(sol.coeffs**2)) - 1.0) < 1e-12
        if n > 0:
            assert mathieu.solve(n - 1, q).b < sol.b


class TestLevelBlock:
    @pytest.mark.parametrize("q", [0.0, 24.0, 2000.0, 4e6])
    def test_levels_index_to_the_memoized_solutions(self, q):
        levels = mathieu.solve_many(20, q)
        assert len(levels) == 20 and list(levels.n) == list(range(20))
        block = levels.coeffs
        assert block.shape == (20, levels.trunc)
        assert block.flags.c_contiguous and not block.flags.writeable
        for n, sol in enumerate(levels):
            assert sol is levels[n] is mathieu.solve(n, q, trunc=levels.trunc)
            assert np.shares_memory(sol.coeffs, block) and np.array_equal(sol.coeffs, block[n])
            assert levels.b[n] == sol.b and levels.tail[n] == sol.tail
        for array in (levels.b, levels.tail, block):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_solve_of_a_range_is_solve_many(self):
        many, ranged = mathieu.solve_many(7, 24.0), mathieu.solve(range(7), 24.0)
        assert all(a is b for a, b in zip(many, ranged))
        assert np.array_equal(many.coeffs, ranged.coeffs)

    def test_block_rows_are_scaled_like_lone_vectors(self):
        # each row is the raw eigenvector over its np.linalg.norm, then
        # sign-anchored, bit for bit as one column on its own would be
        q, trunc, count = 300.0, 60, 30
        levels = mathieu.solve(np.arange(count), q, trunc=trunc)
        assert levels.trunc == trunc
        k = np.arange(trunc)
        w, v = scipy.linalg.eigh_tridiagonal((2.0 * k + 2.0) ** 2, np.full(trunc - 1, q))
        slope = (2.0 * k + 2.0) * (-1.0) ** k
        for n in range(count):
            vec = v[:, n] / np.linalg.norm(v[:, n])
            if (-1) ** n * float(slope @ vec) < 0:
                vec = -vec
            assert levels.b[n] == w[n]
            assert np.array_equal(levels.coeffs[n], vec)

    def test_levels_in_any_order(self):
        q = 24.0
        levels = mathieu.solve(np.array([5, 1, 3]), q)
        assert [sol.n for sol in levels] == [5, 1, 3]
        for i, n in enumerate((5, 1, 3)):
            single = mathieu.solve(n, q, trunc=levels.trunc)
            assert levels[i] is single and levels.b[i] == single.b
            assert np.array_equal(levels.coeffs[i], single.coeffs)
        assert levels.coeffs.flags.c_contiguous and not levels.coeffs.flags.writeable

    @pytest.mark.parametrize("bad", [1.5, [], [[0, 1]], np.array([0.0, 1.0]), True])
    def test_levels_must_be_integers(self, bad):
        with pytest.raises(TypeError, match="integer"):
            mathieu.solve(bad, 4.0)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            mathieu.solve(np.array([2, -1]), 4.0)

    def test_one_truncation_per_request(self):
        # the request starts at default_trunc of its highest level, so at
        # small q all 41 levels come from the 56-row eigensystem
        levels = mathieu.solve(np.arange(41), 4.0)
        assert levels.trunc == mathieu.default_trunc(40, 4.0) == 56
        assert levels[0] is mathieu.solve(0, 4.0, trunc=56)

    def test_fat_starting_tail_grows_or_raises(self, monkeypatch):
        # at q = 2000, 16 rows leave level tails up to 0.1 and 32 rows up to
        # 4e-7; 64 rows bring them below 1e-22
        levels = mathieu.solve(np.arange(3), 2000.0, trunc=16)
        assert levels.trunc == 64 and np.max(levels.tail) <= 1e-12
        monkeypatch.setattr(mathieu, "_MAX_ROWS", 32)
        with pytest.raises(mathieu.ConvergenceError, match="over 32 rows"):
            mathieu.solve(np.arange(3), 2000.0, trunc=16)

    def test_every_requested_tail_is_checked(self):
        # at q = 4 and 40 rows level 0's tail is 0, level 35's is 1.4e-9
        assert mathieu.solve(np.array([0]), 4.0, trunc=40).trunc == 40
        levels = mathieu.solve(np.array([0, 35]), 4.0, trunc=40)
        assert levels.trunc == 80 and np.max(levels.tail) <= 1e-12


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

    def test_chunked_evaluation_matches_one_product(self, monkeypatch):
        sol = mathieu.solve(3, 24.0)
        y = np.linspace(-math.pi / 2, 0.0, 101)
        freqs = 2.0 * np.arange(sol.trunc) + 2.0
        sines = np.sin(np.multiply.outer(y, freqs))
        # chunks of 16 points: six full ones and a short last one
        monkeypatch.setattr(characters, "_SERIES_CHUNK", 16 * sol.trunc)
        assert np.array_equal(sol.se(y), np.sum(sines * sol.coeffs, axis=1))
        second = -np.sum(sines * (freqs * freqs * sol.coeffs), axis=1)
        assert np.array_equal(sol.se_second_derivative(y), second)

    def test_memory_is_bounded_at_large_truncation(self):
        # 1025 points at the 40,016-row truncation of nu_tilde = 1e8: one
        # sine matrix would take 328 MB
        coeffs = np.zeros(40016)
        coeffs[:20] = 0.2
        sol = mathieu.MathieuSolution(n=0, q=4e8, b=0.0, coeffs=coeffs)
        y = np.linspace(-math.pi / 2, 0.0, 1025)
        tracemalloc.start()
        try:
            values = sol.se(y)
            second = sol.se_second_derivative(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        k = np.arange(20)
        assert np.allclose(values, np.sin(np.multiply.outer(y, 2.0 * k + 2.0)) @ coeffs[:20])
        assert np.all(np.isfinite(second))


class TestShootingOracleSmoke:
    def test_small_parameters(self):
        roots = shooting_characteristic_values([1.0, 4.0], count=3, nsteps=3000)
        for q, values in roots.items():
            for n in range(3):
                b = mathieu.solve(n, q).b
                assert abs(values[n] - b) / abs(b) < 1e-8
