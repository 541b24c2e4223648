import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from plaquette_qgauge import characters, mathieu, spectrum

from oracles import shooting_characteristic_values

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def same_bits(a, b):
    """Whether two one-level solves hold the same level, bit for bit."""
    return a.b == b.b and a.coeffs.tobytes() == b.coeffs.tobytes()


def row(levels, i):
    """Row ``i`` of an array solve, as a one-level solve returns it."""
    return mathieu.MathieuLevels(float(levels.b[i]), levels.coeffs[i])


def _load_fit_script():
    path = os.path.join(SCRIPTS, "fit_truncation.py")
    spec = importlib.util.spec_from_file_location("fit_truncation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFreeCase:
    def test_characteristic_values(self):
        assert mathieu.solve(0, 0.0).b == 4.0
        assert mathieu.solve(3, 0.0).b == 64.0

    def test_coefficients_are_exact_basis_vectors(self):
        for n in (0, 2, 5):
            sol = mathieu.solve(n, 0.0)
            expected = np.zeros(len(sol.coeffs))
            expected[n] = 1.0
            assert np.array_equal(sol.coeffs, expected)

    def test_se_reduces_to_sine(self):
        y = np.linspace(-math.pi / 2, 0.0, 25)
        # 2y = m pi + u with m the nearest integer, so sin(2y) = (-1)^m sin(u)
        m = np.rint(2.0 * y / math.pi)
        expected = (-1.0) ** m * np.sin(2.0 * y - m * math.pi)
        assert np.max(np.abs(mathieu.se(0, 0.0, y) - expected)) == 0.0


class TestSolve:
    @pytest.mark.parametrize("q", [1.0, 4.0, 16.0, 48.0, 96.0])
    def test_recurrence_residual(self, q):
        for n in range(10):
            b, coeffs = mathieu.solve(n, q)
            assert mathieu.recurrence_residual(b, q, coeffs) < 1e-10

    @pytest.mark.parametrize("q", [1.0, 48.0])
    def test_recurrence_residual_of_a_block_is_its_worst_row(self, q):
        # every cell of a (levels, trunc) block is computed as for its row
        # alone, so the block's residual is exactly the largest row's
        levels = mathieu.solve(np.arange(10), q)
        rows = [mathieu.recurrence_residual(b, q, c) for b, c in zip(levels.b, levels.coeffs)]
        assert mathieu.recurrence_residual(levels.b, q, levels.coeffs) == max(rows) > 0.0

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
            coeffs = mathieu.solve_many(12, float(q)).coeffs
            if previous is not None:
                m = min(previous.shape[1], coeffs.shape[1])
                for before, after in zip(previous, coeffs):
                    assert float(np.dot(before[:m], after[:m])) > 0.5
            previous = coeffs

    def test_small_trunc_rejected(self):
        # a truncation must hold the highest requested level
        with pytest.raises(ValueError, match="cannot hold level"):
            mathieu.solve(5, 4.0, trunc=5)
        with pytest.raises(ValueError, match="cannot hold level"):
            mathieu.solve_many(6, 4.0, trunc=5)

    def test_growth_gives_up_past_the_doubling_cap(self, monkeypatch, eigensolves, capsys):
        # no tail meets a negative tolerance, so the truncation doubles from
        # 30 rows to 32 x 30 and gives up; a tolerance of 0 would not do, as
        # level 0's 30-row tail at q = 24 is exactly 0.0
        from plaquette_qgauge import cli

        monkeypatch.setattr(mathieu, "_TAIL_TOL", -1.0)
        with pytest.raises(mathieu.ConvergenceError, match="did not fall below"):
            mathieu.solve(0, 24.0)
        assert [rows for rows, _ in eigensolves] == [30, 60, 120, 240, 480, 960]
        assert cli.main(["spectrum", "--nu-tilde", "6", "--n-max", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("numerical failure: coefficient tail did not fall below")

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_rejected(self, q, eigensolves):
        with pytest.raises(ValueError, match="q must be finite"):
            mathieu.solve(0, q)
        assert eigensolves == []

    def test_solve_many_needs_a_level(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            mathieu.solve_many(0, 4.0)

    def test_explicit_small_trunc_grows(self):
        sol = mathieu.solve(0, 200.0, trunc=16)
        assert len(sol.coeffs) == 32 and abs(sol.coeffs[-1]) <= 1e-12

    def test_tiny_explicit_trunc_grows_as_far_as_the_default(self):
        # growth is capped by size, 32 x default_trunc (64,512 rows here),
        # so even a one-row start reaches a converged truncation
        sol = mathieu.solve(0, 1e6, trunc=1)
        assert abs(sol.coeffs[-1]) <= 1e-12
        assert abs(sol.b - mathieu.solve(0, 1e6).b) <= 1e-13 * abs(sol.b)

    def test_explicit_trunc_shares_the_default_eigensystem(self):
        # trunc=12 leaves level 5 a tail of 6.6e-9, so it doubles to 24
        # rows, the default truncation at q = 8
        assert mathieu.default_trunc(5, 8.0) == 24
        assert same_bits(mathieu.solve(5, 8.0, trunc=12), mathieu.solve(5, 8.0))

    def test_auto_trunc_keeps_tail_small(self):
        assert abs(mathieu.solve(0, 200.0).coeffs[-1]) <= 1e-12

    def test_one_level_is_a_float_and_a_read_only_row(self):
        b, coeffs = mathieu.solve(2, 24.0)
        assert type(b) is float and coeffs.ndim == 1 and not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 0.0

    def test_solutions_are_reproducible_and_frozen(self):
        first = mathieu.solve(1, 4.0)
        assert same_bits(mathieu.solve(1, 4.0), first)
        with pytest.raises(ValueError):
            first.coeffs[0] = 0.0

    def test_nothing_is_kept_between_calls(self, eigensolves):
        # each request solves afresh, and the same request gives the same bytes
        first, second = (mathieu.solve(np.arange(41), 2000.0) for _ in range(2))
        assert len(eigensolves) == 2 and eigensolves[0] == eigensolves[1]
        assert first.b.tobytes() == second.b.tobytes()
        assert first.coeffs.tobytes() == second.coeffs.tobytes()

    def test_solve_many_matches_individual_solves(self):
        for q in (24.0, 2000.0, 8000.0):
            many = mathieu.solve_many(6, q)
            for n in range(6):
                single = mathieu.solve(n, q)
                assert math.isclose(many.b[n], single.b, rel_tol=1e-13)
                m = min(many.coeffs.shape[1], len(single.coeffs))
                assert np.max(np.abs(many.coeffs[n, :m] - single.coeffs[:m])) < 1e-12

    def test_solve_many_grows_an_explicit_starting_trunc(self):
        # trunc=16 leaves a fat tail at q = 200, so it doubles
        sols = mathieu.solve_many(3, 200.0, trunc=16)
        assert sols.coeffs.shape[1] > 16 and np.max(np.abs(sols.coeffs[:, -1])) <= 1e-12

    def test_one_eigensolve_for_all_levels_at_one_q(self, eigensolves):
        energies = spectrum.energy(np.arange(41), 2000.0)
        assert len(energies) == 41 and len(eigensolves) == 1

    @pytest.mark.parametrize("rows", [1, 2, 60, 128, 129, 512])
    def test_full_solve_is_scipys_bits(self, rows):
        # dstevd, as scipy.linalg.eigh_tridiagonal calls it, and its quick
        # exit for one row
        k = np.arange(rows)
        d, e = (2.0 * k + 2.0) ** 2, np.full(rows - 1, 300.0)
        w, v = mathieu.eigh_tridiagonal(d, e)
        expected_w, expected_v = scipy.linalg.eigh_tridiagonal(d, e)
        assert w.tobytes() == expected_w.tobytes() and v.tobytes() == expected_v.tobytes()
        assert v.shape == expected_v.shape == (rows, rows)

    @pytest.mark.parametrize("rows, q", [(600, 200.0), (1631, 4e8)])
    def test_block_solve_is_scipys_bits(self, rows, q):
        # dstebz with a tiny tolerance, dstein and the reorder, as scipy's
        # select="i" calls them; the last block of 600 rows holds 8 levels
        k = np.arange(rows)
        d, e = (2.0 * k + 2.0) ** 2, np.full(rows - 1, q)
        for lo, hi in ((0, 15), (16, 31), (rows - 8, rows - 1)):
            w, v = mathieu.eigh_tridiagonal(d, e, (lo, hi))
            expected_w, expected_v = scipy.linalg.eigh_tridiagonal(
                d, e, select="i", select_range=(lo, hi), tol=np.finfo(float).tiny
            )
            assert w.tobytes() == expected_w.tobytes()
            assert v.shape == expected_v.shape == (rows, hi - lo + 1)
            assert v.tobytes() == expected_v.tobytes()

    def test_lapack_failure_raises_convergence_error(self, monkeypatch, capsys):
        from plaquette_qgauge import cli

        failing = types.SimpleNamespace(dstevd=lambda d, e, compute_v: (d, np.eye(len(d)), 3))
        monkeypatch.setattr(mathieu, "_flapack", lambda: failing)
        with pytest.raises(mathieu.ConvergenceError, match="info=3"):
            mathieu.eigh_tridiagonal(np.arange(4.0), np.ones(3))
        # every command solves afresh, so it reaches the failing LAPACK
        assert cli.main(["spectrum", "--nu-tilde", "1234.5625", "--n-max", "2"]) == 3
        assert "eigensolve failed: info=3" in capsys.readouterr().err

    def test_scipy_linalg_import_before_or_after_the_first_solve_gives_the_same_bytes(self):
        # without scipy.linalg the extension is loaded on its own, and a
        # later import of scipy.linalg still binds it on its package
        package_root = os.path.dirname(os.path.dirname(mathieu.__file__))
        solve = (
            "full = mathieu.solve(np.arange(41), 1e4)\n"
            "block = mathieu.solve(np.arange(40), 4e8)\n"
            "assert full.coeffs.shape[1] <= mathieu._FULL_MAX < block.coeffs.shape[1]\n"
        )
        write = (
            "sys.stdout.buffer.write(b''.join(\n"
            "    a.tobytes() for a in (full.b, full.coeffs, block.b, block.coeffs)))\n"
        )
        after = (
            "assert 'scipy.linalg' not in sys.modules, 'loaded by a solve'\n"
            "import scipy.linalg\n"
            "assert scipy.linalg._flapack.dstevd is mathieu._flapack().dstevd\n"
        )
        preamble = "import sys, numpy as np\nfrom plaquette_qgauge import mathieu\n"
        outputs = []
        for code in ("import scipy.linalg\n" + solve, solve + after):
            env = {**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "1"}
            result = subprocess.run(
                [sys.executable, "-c", preamble + code + write], capture_output=True, env=env
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert len(outputs[0]) > 0 and outputs[0] == outputs[1]

    def test_partial_eigensystem_matches_full(self):
        # trunc = 600 computes only the lowest levels, grown past the first
        # block; the default truncations here are diagonalized in full
        for q in (24.0, 200.0):
            for n in range(40):
                partial = mathieu.solve(n, q, trunc=600)
                full = mathieu.solve(n, q)
                assert abs(partial.b - full.b) <= 1e-13 * max(1.0, abs(full.b))
                assert np.max(np.abs(partial.coeffs[: len(full.coeffs)] - full.coeffs)) < 1e-12

    def test_large_q_memory_and_work_stay_bounded(self, monkeypatch):
        # default_trunc at q = 4e8 is 1631 rows, past _FULL_MAX; a full
        # eigendecomposition would hold a 21 MB eigenvector matrix
        columns = []
        original = mathieu.eigh_tridiagonal

        def recording(*args):
            w, v = original(*args)
            columns.append(v.shape[1])
            return w, v

        monkeypatch.setattr(mathieu, "eigh_tridiagonal", recording)
        q = 4e8
        tracemalloc.start()
        try:
            sols, per_level = [], []
            for n in range(4):
                sols.append(mathieu.solve(n, q))
                per_level.append(columns[:])
                columns.clear()
            levels = mathieu.solve(np.arange(40), q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sols[0].coeffs) == levels.coeffs.shape[1] == 1631 > mathieu._FULL_MAX
        # each request on its own: one 16-level block for one level, three
        # blocks for 40 levels
        assert per_level == [[16]] * 4 and columns == [16, 16, 16]
        assert peak < 16e6
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
            assert abs(sol.coeffs[-1]) <= 1e-12

    def test_request_order_does_not_change_bits(self):
        # 1631 rows at q = 4e8, past _FULL_MAX: the levels come in fixed
        # blocks, so 40 levels alone and after 17 levels are the same bytes,
        # and the 17 levels are the first 17 rows of the 40
        alone = mathieu.solve(np.arange(40), 4e8)
        first = mathieu.solve(np.arange(17), 4e8)
        after = mathieu.solve(np.arange(40), 4e8)
        assert alone.coeffs.shape[1] == first.coeffs.shape[1] == after.coeffs.shape[1] > mathieu._FULL_MAX
        assert alone.b.tobytes() + alone.coeffs.tobytes() == after.b.tobytes() + after.coeffs.tobytes()
        assert first.b.tobytes() == alone.b[:17].tobytes()
        assert first.coeffs.tobytes() == alone.coeffs[:17].tobytes()

    @pytest.mark.parametrize("levels", [700, [700], [3, 700], [700, 3], [700, 690, 3, 700]])
    def test_sparse_levels_solve_only_their_blocks(self, levels, monkeypatch):
        # 712 rows for level 700 at q = 4, past _FULL_MAX: the request reads
        # the blocks that hold its levels, [688, 704) and [0, 16), and each
        # level keeps the bits it has among all 701 levels
        everything = mathieu.solve(np.arange(701), 4.0)
        ranges = []
        original = mathieu.eigh_tridiagonal

        def recording(d, e, select_range=None):
            ranges.append((len(d), select_range))
            return original(d, e, select_range)

        monkeypatch.setattr(mathieu, "eigh_tridiagonal", recording)
        got = mathieu.solve(levels, 4.0)
        wanted = np.atleast_1d(levels)
        assert everything.coeffs.shape[1] == got.coeffs.shape[-1] == 712 > mathieu._FULL_MAX
        assert ranges == [(712, (start, start + 15)) for start in sorted({n // 16 * 16 for n in wanted})]
        if np.ndim(levels) == 0:
            assert same_bits(got, row(everything, levels))
        else:
            assert got.b.tobytes() == everything.b[wanted].tobytes()
            assert got.coeffs.tobytes() == everything.coeffs[wanted].tobytes()

    def test_full_solve_bits_do_not_depend_on_the_request(self):
        # 81 rows at q = 2000, up to _FULL_MAX: every top level up to 40
        # gets this one truncation, and a full solve keeps exactly the
        # levels a request reads, each normalized and anchored on its own
        q = 2000.0
        some, one, most = mathieu.solve(np.arange(17), q), mathieu.solve(5, q), mathieu.solve(np.arange(41), q)
        assert some.coeffs.shape[1] == len(one.coeffs) == most.coeffs.shape[1] == 81 <= mathieu._FULL_MAX
        assert some.b.tobytes() == most.b[:17].tobytes()
        assert some.coeffs.tobytes() == most.coeffs[:17].tobytes()
        assert same_bits(one, row(some, 5)) and same_bits(one, row(most, 5))
        for count in (1, 6, 41, 81):
            values, block = mathieu._eigensystem(q, 81, np.arange(count))
            assert values.shape == (count,) and block.shape == (count, 81)
            assert values[:41].tobytes() == most.b[:count].tobytes()
            assert block[:41].tobytes() == most.coeffs[:count].tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_residual_check_guards_every_returned_level(self, offset, monkeypatch):
        # a full solve returns every level; the residual check covers the
        # lowest ``count``, which are all that the request reads
        q, count = 2000.0, 17
        clean = mathieu.solve(np.arange(count), q)
        original = mathieu.eigh_tridiagonal

        def perturbed(*args):
            w, v = original(*args)
            v[:, count + offset] += 1e-6
            return w, v

        monkeypatch.setattr(mathieu, "eigh_tridiagonal", perturbed)
        if offset < 0:
            with pytest.raises(mathieu.ConvergenceError, match="residual"):
                mathieu.solve(np.arange(count), q)
        else:
            levels = mathieu.solve(np.arange(count), q)
            assert levels.b.tobytes() + levels.coeffs.tobytes() == clean.b.tobytes() + clean.coeffs.tobytes()

    @pytest.mark.parametrize(
        "n, q, trunc",
        [(2**19 - 16, mathieu._MAX_Q, None), (0, 1.0, mathieu.MAX_ROWS + 1), (2**20, 0.0, None)],
    )
    def test_row_bound_refuses_before_allocating(self, n, q, trunc, monkeypatch):
        def unexpected(*args):
            raise AssertionError("eigensystem built past the row bound")

        monkeypatch.setattr(mathieu, "_eigensystem", unexpected)
        with pytest.raises(mathieu.ConvergenceError, match=f"over {mathieu.MAX_ROWS} rows"):
            mathieu.solve(n, q, trunc=trunc)

    def test_row_bound_holds_the_default_truncation_at_nu_tilde_1e10(self, monkeypatch):
        # the domain edge is an explicit q bound, nu_tilde = 1.7e10; inside
        # it the start of the highest level the program asks for by itself
        # (the completeness count, 960) is far inside the row bound
        assert mathieu._MAX_Q == 4 * 1.7e10
        assert mathieu.default_trunc(960, mathieu._MAX_Q) <= mathieu.MAX_ROWS
        assert abs(mathieu.solve(0, 4e10).coeffs[-1]) <= 1e-12

        def unexpected(*args):
            raise AssertionError("eigensystem built past the domain edge")

        monkeypatch.setattr(mathieu, "_eigensystem", unexpected)
        # |q| is checked before the row bound, however far past the edge
        for q in (4 * 1.72e10, -4 * 1.72e10, 4e20, 4e300, -1.7e308):
            with pytest.raises(mathieu.ConvergenceError, match="past the domain edge"):
                mathieu.solve(0, q)
        with pytest.raises(mathieu.ConvergenceError, match="past the domain edge"):
            mathieu.solve(np.arange(41), 4 * 1.72e10, trunc=64)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=6), st.floats(min_value=0.0, max_value=30.0))
    def test_solution_properties_hold_generically(self, n, q):
        sol = mathieu.solve(n, q)
        assert mathieu.recurrence_residual(sol.b, q, sol.coeffs) < 1e-10
        assert abs(float(np.sum(sol.coeffs**2)) - 1.0) < 1e-12
        if n > 0:
            assert mathieu.solve(n - 1, q).b < sol.b


class TestLevelBlock:
    @pytest.mark.parametrize("q", [0.0, 24.0, 2000.0, 4e6])
    def test_levels_index_to_per_level_solutions(self, q):
        levels = mathieu.solve_many(20, q)
        # rows come in the order of the levels, whose b strictly increase
        assert len(levels.b) == 20 and bool(np.all(np.diff(levels.b) > 0))
        block = levels.coeffs
        trunc = block.shape[1]
        assert block.shape == (20, trunc)
        assert block.flags.c_contiguous and not block.flags.writeable
        for n in range(20):
            sol = row(levels, n)
            assert same_bits(sol, mathieu.solve(n, q, trunc=trunc))
            assert np.shares_memory(sol.coeffs, block) and np.array_equal(sol.coeffs, block[n])
            assert levels.b[n] == sol.b and abs(levels.coeffs[n, -1]) == abs(sol.coeffs[-1])
        for array in (levels.b, block):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_solve_of_a_range_is_solve_many(self):
        many, ranged = mathieu.solve_many(7, 24.0), mathieu.solve(range(7), 24.0)
        assert all(same_bits(row(many, i), row(ranged, i)) for i in range(7))
        assert np.array_equal(many.coeffs, ranged.coeffs)

    @pytest.mark.parametrize("trunc", [60, 128, 129])
    def test_block_rows_are_scaled_like_lone_vectors(self, trunc):
        # each row is the raw eigenvector over the square root of its
        # elementwise sum of squares, then sign-anchored, bit for bit as one
        # column of scipy's dstevd on its own would be
        q, count = 300.0, 30
        levels = mathieu.solve(np.arange(count), q, trunc=trunc)
        assert levels.coeffs.shape[1] == trunc
        k = np.arange(trunc)
        w, v = scipy.linalg.eigh_tridiagonal((2.0 * k + 2.0) ** 2, np.full(trunc - 1, q))
        slope = (2.0 * k + 2.0) * (-1.0) ** k
        for n in range(count):
            col = v[:, n]
            vec = col / np.sqrt(np.sum(col * col))
            if (-1) ** n * float(slope @ vec) < 0:
                vec = -vec
            assert levels.b[n] == w[n]
            assert np.array_equal(levels.coeffs[n], vec)

    @pytest.mark.parametrize(
        "count, q, trunc", [(4, 4e6, 12000), (41, 1e4, 128)]
    )
    def test_block_does_not_depend_on_blas_threads(self, count, q, trunc):
        # OpenBLAS splits a dot product of over 10,000 elements across
        # threads, which changes its rounding; the row norms are elementwise
        # sums, so 12,000-row blocks come out the same at 1 and 2 threads.
        # dstevd's divide and conquer merges with dgemm above 25 rows, and
        # its bytes must not depend on the threads either
        package_root = os.path.dirname(os.path.dirname(mathieu.__file__))
        code = (
            "import sys, numpy as np\n"
            "from plaquette_qgauge import mathieu\n"
            f"levels = mathieu.solve(np.arange({count}), {q!r}, trunc={trunc})\n"
            "sys.stdout.buffer.write(levels.b.tobytes() + levels.coeffs.tobytes())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert len(outputs[0]) == count * (trunc + 1) * 8 and outputs[0] == outputs[1]

    def test_levels_in_any_order(self, eigensolves):
        q = 24.0
        everything = mathieu.solve(np.arange(6), q)
        for request in ([5, 1, 3], [5, 1, 5, 3]):
            eigensolves.clear()
            levels = mathieu.solve(np.array(request), q)
            # one full solve at the truncation of level 5, as for levels 0..5
            assert eigensolves == [(everything.coeffs.shape[1], q)]
            assert everything.coeffs.shape[1] <= mathieu._FULL_MAX
            # rows come in the order asked for: b rises with the level
            assert list(np.argsort(levels.b, kind="stable")) == list(np.argsort(request, kind="stable"))
            assert levels.b.tobytes() == everything.b[request].tobytes()
            assert levels.coeffs.tobytes() == everything.coeffs[request].tobytes()
            for i, n in enumerate(request):
                single = mathieu.solve(n, q, trunc=levels.coeffs.shape[1])
                assert same_bits(row(levels, i), single) and levels.b[i] == single.b
                assert np.array_equal(levels.coeffs[i], single.coeffs)
            assert levels.coeffs.flags.c_contiguous and not levels.coeffs.flags.writeable

    @pytest.mark.parametrize(
        "levels, q", [(np.arange(3, 5), 24.0), (np.arange(700, 702), 4.0)]
    )
    def test_array_request_holds_only_its_own_rows(self, levels, q):
        # a run of levels that does not start at 0, on the full path (30
        # rows) and on the block path (713 rows, the block [688, 704)): its
        # arrays are its own, not views of a larger eigensystem
        got = mathieu.solve(levels, q)
        assert (got.coeffs.shape[1] <= mathieu._FULL_MAX) == (q == 24.0)
        assert got.b.shape == (2,) and got.coeffs.shape == (2, got.coeffs.shape[1])
        for array in got:
            assert array.base is None and array.flags.c_contiguous and not array.flags.writeable
        for i, n in enumerate(levels):
            assert same_bits(row(got, i), mathieu.solve(int(n), q, trunc=got.coeffs.shape[1]))

    @pytest.mark.parametrize("bad", [1.5, [], [[0, 1]], np.array([0.0, 1.0]), True])
    def test_levels_must_be_integers(self, bad):
        with pytest.raises(TypeError, match="integer"):
            mathieu.solve(bad, 4.0)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            mathieu.solve(np.array([2, -1]), 4.0)

    def test_one_truncation_per_request(self):
        # the request starts at default_trunc of its highest level, so at
        # small q all 41 levels come from the 52-row eigensystem
        levels = mathieu.solve(np.arange(41), 4.0)
        assert levels.coeffs.shape[1] == mathieu.default_trunc(40, 4.0) == 52
        assert same_bits(row(levels, 0), mathieu.solve(0, 4.0, trunc=52))

    def test_fat_starting_tail_grows_or_raises(self, monkeypatch):
        # at q = 2000, 16 rows leave level tails up to 0.1 and 32 rows up to
        # 4e-7; 64 rows bring them below 1e-22
        levels = mathieu.solve(np.arange(3), 2000.0, trunc=16)
        assert levels.coeffs.shape[1] == 64 and np.max(np.abs(levels.coeffs[:, -1])) <= 1e-12
        monkeypatch.setattr(mathieu, "MAX_ROWS", 32)
        with pytest.raises(mathieu.ConvergenceError, match="over 32 rows"):
            mathieu.solve(np.arange(3), 2000.0, trunc=16)

    def test_every_requested_tail_is_checked(self):
        # at q = 4 and 40 rows level 0's tail is 0, level 35's is 1.4e-9
        assert mathieu.solve(np.array([0]), 4.0, trunc=40).coeffs.shape[1] == 40
        levels = mathieu.solve(np.array([0, 35]), 4.0, trunc=40)
        assert levels.coeffs.shape[1] == 80 and np.max(np.abs(levels.coeffs[:, -1])) <= 1e-12


class TestStartingTruncation:
    """``default_trunc`` on a sample of the grid scripts/fit_truncation.py certifies."""

    #: q = 0, one point per decade, and the domain edge; 1e5 and 1e6 hold
    #: the transition points where a start of n + 8 + ceil(2 q^(1/4)) and
    #: ceil((5 + 0.8 sqrt(2 max(n, 40) + 1)) q^(1/4)) + 8 is short for
    #: levels 240 and 480
    QS = (0.0, *(10.0**k for k in range(-2, 11)), 6.8e10)

    def test_start_holds_every_tail_and_is_not_oversized(self):
        fit = _load_fit_script()
        problems = []
        for n in fit.LEVELS:
            for q in self.QS:
                start = mathieu.default_trunc(n, q)
                if (n + 1) * start <= 2**18:
                    coeffs = mathieu.solve(np.arange(n + 1), q).coeffs
                    tail = float(np.max(np.abs(coeffs[:, -1]))) if coeffs.shape[1] == start else math.inf
                else:
                    tail = fit.level_tail(n, q, start)
                if tail > 1e-12:
                    problems.append((n, q, start, "tail", tail))
                # the start is oversized if the tail already falls below
                # 1e-12 at start / 1.3 rows, where the needed size is at
                # least 64 (which level 63 and up need just to be held)
                smaller = math.ceil(start / 1.3) - 1
                if (
                    n >= 40
                    and smaller > n
                    and fit.level_tail(n, q, smaller) <= 1e-12
                    and (n >= 63 or fit.level_tail(n, q, 63) > 1e-12)
                ):
                    problems.append((n, q, start, "oversized", smaller))
        assert problems == []

    def test_start_never_falls_as_the_level_rises(self):
        # so a start certified for level n also holds the lower levels of a
        # request, whose tails are thinner at the same size
        for q in (0.0, 4.0, 1372.0, 8000.0, 4e8, 6.8e10):
            starts = [mathieu.default_trunc(n, q) for n in range(1000)]
            assert all(a <= b for a, b in zip(starts, starts[1:]))


class TestSineElliptic:
    @pytest.mark.parametrize("q", [1.0, 4.0, 16.0])
    def test_boundary_conditions(self, q):
        for n in range(9):
            assert abs(mathieu.se(n, q, 0.0)) < 1e-10
            assert abs(mathieu.se(n, q, -math.pi / 2)) < 1e-10

    @pytest.mark.parametrize("q", [1.0, 16.0, 96.0])
    def test_ode_residual(self, q):
        rng = np.random.default_rng(3)
        y = rng.uniform(-math.pi / 2, 0.0, 50)
        for n in range(6):
            sol = mathieu.solve(n, q)
            second = mathieu.se_second_derivative(sol.coeffs, y)
            residual = second + (sol.b - 2.0 * q * np.cos(2.0 * y)) * mathieu.se(n, q, y)
            assert np.max(np.abs(residual)) < 1e-7

    def test_levels_evaluate_as_each_level(self):
        # every level up to 7 starts at the same 30-row truncation at q = 24,
        # so the rows of one solve are each level's own bits
        y = np.linspace(-math.pi / 2, 0.0, 33)
        rows = mathieu.se(np.arange(8), 24.0, y)
        assert rows.shape == (8, 33)
        for n in range(8):
            assert rows[n].tobytes() == mathieu.se(n, 24.0, y).tobytes()

    def test_orthonormality_at_q24(self):
        nodes, weights = np.polynomial.legendre.leggauss(512)
        y = -0.25 * math.pi * (nodes + 1.0)
        w = 0.25 * math.pi * weights
        funcs = np.column_stack([math.sqrt(2.0) * mathieu.se(n, 24.0, y) for n in range(8)])
        gram = (funcs * w[:, None]).T @ funcs * (2.0 / math.pi)
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9

    def test_chunked_evaluation_matches_one_product(self, monkeypatch):
        coeffs = mathieu.solve(3, 24.0).coeffs
        y = np.linspace(-math.pi / 2, 0.0, 101)
        freqs = 2.0 * np.arange(len(coeffs)) + 2.0
        # 2y = m pi + u with m the nearest integer, so sin((k+1) 2y) is
        # (-1)^((k+1) m) sin((k+1) u)
        m = np.rint(2.0 * y / math.pi)
        half = freqs / 2.0
        signs = (-1.0) ** np.multiply.outer(m, half)
        sines = signs * np.sin(np.multiply.outer(2.0 * y - m * math.pi, half))
        # the 50 points with m = -1 and the 51 with m = 0, each in chunks of
        # 16 points: three full ones and a short last one
        monkeypatch.setattr(characters, "_SERIES_CHUNK", 16 * len(coeffs))
        assert np.array_equal(mathieu.se(3, 24.0, y), np.sum(sines * coeffs, axis=1))
        second = -np.sum(sines * (freqs * freqs * coeffs), axis=1)
        assert np.array_equal(mathieu.se_second_derivative(coeffs, y), second)

    def test_memory_is_bounded_at_large_truncation(self, monkeypatch):
        # 1025 points at the 40,016-row truncation of nu_tilde = 1e8: one
        # sine matrix would take 328 MB
        coeffs = np.zeros(40016)
        coeffs[:20] = 0.2
        monkeypatch.setattr(mathieu, "solve", lambda n, q: mathieu.MathieuLevels(0.0, coeffs))
        y = np.linspace(-math.pi / 2, 0.0, 1025)
        tracemalloc.start()
        try:
            values = mathieu.se(0, 4e8, y)
            second = mathieu.se_second_derivative(coeffs, y)
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
