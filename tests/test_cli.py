import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
from importlib import import_module

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import plaquette_qgauge
from plaquette_qgauge import Stratum, cli, costratified, mathieu, spectrum

from oracles import dense_projectors


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_quiet(args):
    """Exit code, stdout and stderr of an in-process run, without pytest fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def run_refused(args, parse=None):
    """Exit code, stdout and stderr of an in-process run (or ``parse``) whose arguments argparse refuses."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as excinfo, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        (cli.main if parse is None else parse)(args)
    return excinfo.value.code, out.getvalue(), err.getvalue()


def package_env(**overrides):
    """The environment for a subprocess that imports this package."""
    package_root = os.path.dirname(os.path.dirname(plaquette_qgauge.__file__))
    return {**os.environ, "PYTHONPATH": package_root, **overrides}


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# plaquette-qgauge v0.1.0 config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestTunneling:
    def test_default_run_contract(self, capsys):
        code, out = run_cli(["tunneling"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["hbar_beta2", "overlap", "probability"]
        assert len(rows) == 200
        probabilities = [float(r[2]) for r in rows]
        assert probabilities[0] < 1e-4
        assert probabilities[-1] > 0.98
        for earlier, later in zip(probabilities, probabilities[1:]):
            assert later >= earlier - 1e-20

    def test_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert cli.main(["tunneling", "--hbar-beta2", "0.05:3:25:log", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invalid_range_exits_2(self, capsys):
        assert cli.main(["tunneling", "--hbar-beta2", "5:1:10"]) == 2

    @pytest.mark.parametrize("t", ["800", "1e-9"])
    def test_unsummable_series_exits_3(self, t, capsys):
        # 800: N^2 ~ exp(-t) is not a normal double; 1e-9: the tunneling
        # probability underflows.  Either way a one-line refusal, not a traceback
        assert cli.main(["tunneling", "--hbar-beta2", t]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_start_path_does_not_load_scipy(self, tmp_path):
        # importing the CLI loads nothing of scipy, and a command with no
        # eigensolve neither; a Mathieu eigensolve loads scipy's LAPACK
        # extension alone, whether its solves are full or in blocks.  On
        # POSIX that leaves no scipy module at all in sys.modules, not even
        # the package; on Windows the package is imported for its DLL path,
        # but never scipy.linalg, most of scipy's import time
        code = (
            "import os, sys\n"
            "import plaquette_qgauge.cli as cli\n"
            "def run(argv):\n"
            "    assert cli.main([*argv, '--out', sys.argv[1]]) == 0, argv\n"
            "def scipy_modules():\n"
            "    return [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
            "assert not scipy_modules(), 'loaded by import'\n"
            "for argv in (['tunneling'], ['decomp', '--s', '3', '--k', '6'], ['geometry-verify'],\n"
            "             ['states', '--state', 'psi-plus'], ['states', '--state', 'psi-minus']):\n"
            "    run(argv)\n"
            "    assert not scipy_modules(), f'{scipy_modules()} loaded by {argv}'\n"
            "for argv in (['spectrum'], ['projector-expectations'], ['verify'],\n"
            "             ['states', '--state', 'xi', '--level', '3', '--nu-tilde', '6'],\n"
            "             ['spectrum', '--nu-tilde', '1e5', '--n-max', '40'],\n"
            "             ['states', '--state', 'xi', '--level', '3', '--nu-tilde', '1e8']):\n"
            "    run(argv)\n"
            "    if os.name == 'nt':\n"
            "        assert 'scipy.linalg' not in sys.modules, f'scipy.linalg loaded by {argv}'\n"
            "    else:\n"
            "        assert not scipy_modules(), f'{scipy_modules()} loaded by {argv}'\n"
            "from plaquette_qgauge import mathieu\n"
            "assert mathieu._flapack.cache_info().currsize == 1, 'no command loaded LAPACK'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "t.csv")],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert result.returncode == 0, result.stderr


class TestDomain:
    """Exit codes over and past the README's valid domain: a CSV or a refusal, never a raise."""

    @settings(deadline=None, max_examples=25)
    @given(st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0**e))
    @example(1e-4)
    @example(0.0069)
    @example(708.0)
    @example(1e4)
    def test_tunneling_exit_codes(self, t):
        code, out, err = run_quiet(["tunneling", "--hbar-beta2", repr(t)])
        assert code in (0, 3)
        if 0.0069 <= t <= 708.0:
            assert code == 0, err
        if code == 0:
            _, rows = parse_csv(out)
            overlap, probability = float(rows[0][1]), float(rows[0][2])
            assert overlap > 0.0 and 0.0 <= probability <= 1.0
        else:
            assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @settings(deadline=None, max_examples=25)
    @given(
        st.sampled_from([0.03125, 0.125, 0.5, 2.0]),
        st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=4.0).map(lambda e: 10.0**e)),
    )
    @example(2.0, 1e4)
    @example(0.03125, 1e4)
    def test_projector_completeness(self, t, nu_tilde):
        code, out, err = run_quiet(
            ["projector-expectations", "--hbar-beta2", repr(t), "--nu-tilde", repr(nu_tilde)]
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        for row in rows:
            assert 0.0 <= float(row[3]) <= 1.0 and 0.0 <= float(row[4]) <= 1.0
            assert float(row[5]) >= 1.0 - 1e-6


    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--nu-tilde", "inf"],
            ["spectrum", "--nu-tilde", "1,nan"],
            ["spectrum", "--nu-tilde", "0:inf:3"],
            ["tunneling", "--hbar-beta2", "0.1:inf:3"],
            ["tunneling", "--hbar-beta2", "0.1:inf:3:log"],
            ["tunneling", "--hbar-beta2", "nan:1:3"],
            ["tunneling", "--hbar-beta2=-inf:1:3"],
            ["tunneling", "--hbar-beta2=-1e308:1e308:3"],
            ["projector-expectations", "--hbar-beta2", "0.125", "--nu-tilde", "1,1e400"],
            # steps below the spacing of doubles: the ranges would repeat a value
            ["spectrum", "--nu-tilde", "1:1.0000000000000004:5"],
            ["tunneling", "--hbar-beta2", "1:1.0000000000000004:4"],
        ],
    )
    def test_non_finite_grid_exits_2(self, args):
        code, out, err = run_quiet(args)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, derived",
        [
            (["spectrum", "--coupling-g", "1e-170"], "nu"),
            (["spectrum", "--hbar", "1", "--beta2", "1", "--coupling-g", "1e-200"], "nu"),
            (["spectrum", "--hbar", "1e-200", "--beta2", "1", "--coupling-g", "1"], "hbar2_beta2"),
            (["states", "--state", "xi", "--hbar", "1", "--beta2", "1", "--coupling-g", "1e-170"], "nu"),
            (["spectrum", "--hbar", "1e-100", "--beta2", "1e-120", "--coupling-g", "1"], "nu_tilde"),
            (["tunneling", "--hbar", "1e-200", "--beta2", "1e-200"], "t"),
            (["tunneling", "--hbar", "1e200", "--beta2", "1e200"], "t"),
        ],
    )
    def test_parameters_out_of_double_range_exit_2(self, args, derived):
        # a derived combination that underflows to 0 or overflows is
        # refused when the parameter set is built, never divided by
        code, out, err = run_quiet(args)
        assert code == 2 and out == ""
        assert err.startswith("error: hbar=") and err.count("\n") == 1
        assert f": {derived} = " in err

    @pytest.mark.parametrize(
        "args, reduced",
        [
            (["tunneling"], ["tunneling", "--hbar-beta2", "1.0"]),
            (["states", "--state", "psi-plus"], ["states", "--state", "psi-plus", "--hbar-beta2", "1.0"]),
            (["projector-expectations"], ["projector-expectations", "--hbar-beta2", "1.0"]),
            (["spectrum", "--coupling-g", "inf"], ["spectrum", "--nu-tilde", "0"]),
        ],
    )
    @pytest.mark.parametrize("hbar, beta2", [("1e-200", "1e200"), ("1e200", "1e-200")])
    def test_free_theory_needs_only_t_in_range(self, args, reduced, hbar, beta2):
        # hbar^2 * beta2 under- or overflows, but the free theory reads only
        # t = 1 and nu_tilde = 0, so the run is that of the reduced inputs
        code, out, err = run_quiet([*args, "--hbar", hbar, "--beta2", beta2])
        assert code == 0 and (code, out, err) == run_quiet(reduced)

    @pytest.mark.parametrize("nu_tilde", ["1e11", "1e20", "1e300", "1e308"])
    @pytest.mark.parametrize(
        "command", [["spectrum"], ["states", "--state", "xi"], ["projector-expectations"]]
    )
    def test_huge_nu_tilde_exits_3(self, command, nu_tilde):
        # past nu_tilde = 1.7e10, however far, the domain edge is refused
        # before q = 4 nu_tilde is formed, so it cannot overflow, and
        # before any truncation is sized
        code, out, err = run_quiet([*command, "--nu-tilde", nu_tilde])
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "past the domain edge" in err


class TestSpectrum:
    def test_free_theory_rows(self, capsys):
        code, out = run_cli(["spectrum", "--nu-tilde", "0,3", "--n-max", "8"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["nu_tilde", "n", "E_n", "E_gap"]
        assert len(rows) == 16
        for row in rows:
            if float(row[0]) == 0.0:
                n = int(row[1])
                assert abs(float(row[2]) - 0.5 * n * (n + 2)) < 1e-12

    def test_levels_strictly_increase(self, capsys):
        code, out = run_cli(["spectrum", "--nu-tilde", "6", "--n-max", "8"], capsys)
        _, rows = parse_csv(out)
        energies = [float(r[2]) for r in rows]
        assert all(a < b for a, b in zip(energies, energies[1:]))
        assert all(float(r[3]) > 0 for r in rows)

    def test_cells_are_the_solve_at_exactly_four_nu_tilde(self, capsys):
        # nu_tilde = 6 read back through hbar, beta2 and coupling_g is
        # 5.999999999999998; the cells are E_n / (hbar^2 beta2) at q = 24
        n_max = 8
        code, out = run_cli(["spectrum", "--nu-tilde", "6", "--n-max", str(n_max)], capsys)
        assert code == 0
        b = mathieu.solve(np.arange(n_max + 1), 24.0).b
        energies = 0.5 * (b / 4.0 + 3.0 * 6.0 - 1.0)
        _, rows = parse_csv(out)
        assert [row[2] for row in rows] == [repr(float(e)) for e in energies[:-1]]
        assert [row[3] for row in rows] == [repr(float(gap)) for gap in np.diff(energies)]


class TestStates:
    def test_vertex_state_norm_from_grid(self, capsys):
        code, out = run_cli(
            ["states", "--state", "psi-plus", "--hbar-beta2", "0.125", "--grid", "401"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        x = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
        assert np.all(np.isfinite(values))
        norm = math.sqrt(np.trapezoid(values**2, x) / math.pi)
        assert abs(norm - 1.0) < 1e-6

    def test_free_eigenfunction_is_sine(self, capsys):
        code, out = run_cli(["states", "--state", "xi", "--level", "0", "--grid", "65"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            x, value = float(row[0]), float(row[1])
            assert abs(value - math.sqrt(2.0) * math.sin(x)) < 1e-12

    def test_eigenfunction_endpoints_vanish(self, capsys):
        code, out = run_cli(
            ["states", "--state", "xi", "--level", "2", "--nu-tilde", "6", "--grid", "33"], capsys
        )
        _, rows = parse_csv(out)
        assert abs(float(rows[0][1])) < 1e-10
        assert abs(float(rows[-1][1])) < 1e-10

    def test_eigenfunction_is_the_level_at_exactly_four_nu_tilde(self, capsys):
        args = ["states", "--state", "xi", "--level", "2", "--nu-tilde", "6", "--grid", "33"]
        code, out = run_cli(args, capsys)
        assert code == 0
        x = np.linspace(0.0, math.pi, 33)
        coeffs = mathieu.solve(2, 24.0).coeffs
        k = np.arange(len(coeffs))
        # x = m pi + u with m the nearest integer: sin((k+1) x) is
        # (-1)^((k+1) m) sin((k+1) u), and row k of level 2 is (-1)^(2+k) c_k
        m = np.rint(x / math.pi)
        sines = np.sin(np.multiply.outer(x - m * math.pi, k + 1.0))
        signs = (-1.0) ** (2.0 + k + np.multiply.outer(m, k + 1.0))
        expected = math.sqrt(2.0) * np.sum(sines * (signs * coeffs), axis=1)
        _, rows = parse_csv(out)
        assert [row[1] for row in rows] == [repr(float(v)) for v in expected]

    @pytest.mark.parametrize(
        "args",
        [
            *(["--state", state, "--hbar-beta2", t]
              for state in ("psi-plus", "psi-minus") for t in ("0.0078125", "0.125", "0.5")),
            *(["--state", "xi", "--level", str(n), "--nu-tilde", nut]
              for n in range(4) for nut in ("0", "24", "400")),
            ["--state", "xi", "--level", "700", "--nu-tilde", "1"],
        ],
        ids=lambda args: "-".join(arg.lstrip("-") for arg in args),
    )
    def test_walls_are_exactly_zero(self, args, capsys):
        # every state vanishes at x = 0 and x = pi; the series is summed in
        # the nearer wall's coordinate, so no rounding noise is left there
        code, out = run_cli(["states", *args], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == math.pi
        assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.0

    def test_lone_high_level_solves_its_block(self, eigensolves, capsys):
        # level 100,000 at q = 4 takes 100,012 rows; the levels below it
        # would take a 75 GB coefficient block
        code, out = run_cli(["states", "--state", "xi", "--level", "100000", "--nu-tilde", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 257 and all(math.isfinite(float(row[1])) for row in rows)
        assert eigensolves == [(100012, 4.0)]

    def test_bad_selector_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["states", "--state", "nonsense"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("t", ["1e-160", "1e-300", "1e160"])
    def test_eigenfunction_does_not_depend_on_t(self, t):
        # an eigenfunction is a function of nu_tilde alone, so a t, which
        # no row would depend on, is refused instead of ignored
        args = ["states", "--state", "xi", "--level", "0", "--nu-tilde", "6", "--grid", "17"]
        code, out, err = run_quiet([*args, "--hbar-beta2", t])
        assert code == 2 and out == ""
        assert err == "error: hbar_beta2 does not enter this run, which reads only nu_tilde\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["tunneling", "--hbar-beta2", "1e-250"],
            ["states", "--state", "psi-plus", "--hbar-beta2", "1e-300"],
        ],
    )
    def test_overflowing_normalization_exits_3(self, args):
        # below t ~ 3e-206 the vertex-state normalization overflows; the
        # refusal names t, before any weights are allocated
        code, out, err = run_quiet(args)
        assert code == 3 and out == ""
        assert err == f"numerical failure: N^2 overflows a double at t={float(args[-1])}\n"

    def test_tunneling_just_above_the_overflow_edge_exits_3(self):
        # N^2 is finite at 4e-206, and the overlap underflows to 0, not nan
        code, out, err = run_quiet(["tunneling", "--hbar-beta2", "4e-206"])
        assert code == 3 and out == ""
        assert err == "numerical failure: tunneling probability 0.0 is not a normal double at t=4e-206\n"

    @pytest.mark.parametrize("t, code", [("2.911e-10", 0), ("2.91e-10", 3), ("1e-200", 3)])
    def test_vertex_state_row_bound(self, t, code):
        # the default truncation passes 2**19 rows below t ~ 2.9105e-10
        result = run_quiet(["states", "--state", "psi-plus", "--hbar-beta2", t, "--grid", "3"])
        assert result[0] == code, result[2]
        if code:
            assert result[1] == "" and result[2].count("\n") == 1
            assert result[2].startswith("numerical failure: trunc=") and "past 524288 rows" in result[2]

    @pytest.mark.parametrize(
        "args",
        [
            ["--state", "xi", "--level", "3", "--nu-tilde", "1e7", "--grid", "1025"],
            ["--state", "psi-plus", "--hbar-beta2", "0.0001", "--grid", "4097"],
        ],
    )
    def test_output_does_not_depend_on_blas_threads(self, args):
        # a BLAS matrix product would split its sums by thread count, and
        # these sizes are large enough for OpenBLAS to split them
        outputs = []
        for threads in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-m", "plaquette_qgauge", "states", *args],
                capture_output=True,
                env=package_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestProjectorExpectations:
    def test_truncation_failure_exits_3(self, monkeypatch, capsys):
        # 60 levels sum to 0.97146 here, and the ladder has no rung past them
        monkeypatch.setattr(spectrum, "_COMPLETENESS_COUNTS", (60,))
        code = cli.main(["projector-expectations", "--hbar-beta2", "2", "--nu-tilde", "3000"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_small_sweep(self, capsys):
        code, out = run_cli(
            [
                "projector-expectations",
                "--hbar-beta2",
                "0.125",
                "--nu-tilde",
                "1,10",
                "--n-max",
                "3",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["hbar_beta2", "nu_tilde", "n", "P_plus", "P_minus", "sum_P_plus"]
        assert len(rows) == 6
        for row in rows:
            p_plus, p_minus, total = float(row[3]), float(row[4]), float(row[5])
            assert 0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0
            assert total >= 1.0 - 1e-6


    @pytest.mark.parametrize(
        "args, t_values, nu_tildes, n_max",
        [
            (["--hbar-beta2", "0.125,0.5", "--nu-tilde", "1,6,24", "--n-max", "2"],
             [0.125, 0.5], [1.0, 6.0, 24.0], 2),
            # the defaults: 3 x 30 x 6 = 540 rows, past cli._BLOCK_ROWS = 512
            ([], [0.03125, 0.125, 0.5], np.geomspace(0.1, 100.0, 30).tolist(), 6),
        ],
        ids=["12-rows", "540-rows"],
    )
    def test_rows_run_t_nu_tilde_level(self, args, t_values, nu_tildes, n_max, capsys):
        # rows are the grid call's arrays raveled in (t, nu_tilde, n) order
        code, out = run_cli(["projector-expectations", *args], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        plus, minus, completeness = spectrum.projector_expectations(t_values, nu_tildes, n_max)
        axes = itertools.product(map(repr, t_values), map(repr, nu_tildes), map(str, range(n_max)))
        columns = (plus.ravel(), minus.ravel(), np.repeat(completeness.ravel(), n_max))
        data = zip(*(column.tolist() for column in columns))
        assert rows == [[*cells, *map(repr, values)] for cells, values in zip(axes, data)]

    def test_rows_are_the_batch_at_exactly_four_nu_tilde(self, monkeypatch, capsys):
        # every solve the command and the direct call make is at q = 24 exactly
        qs = []
        original = mathieu.solve_many

        def recording(n, q, **kwargs):
            qs.append(q)
            return original(n, q, **kwargs)

        monkeypatch.setattr(mathieu, "solve_many", recording)
        t_values = (0.125, 0.3)
        args = ["projector-expectations", "--hbar-beta2", "0.125,0.3", "--nu-tilde", "6"]
        code, out = run_cli([*args, "--n-max", "6"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        plus, minus, completeness = spectrum.projector_expectations(t_values, (6.0,), 6)
        assert set(qs) == {24.0}
        expected = [
            [repr(t), "6.0", str(n)]
            + [repr(float(v)) for v in (plus[i, 0, n], minus[i, 0, n], completeness[i, 0])]
            for i, t in enumerate(t_values)
            for n in range(6)
        ]
        assert rows == expected

    def test_large_nu_tilde_matches_dense_reference(self, capsys):
        # the batch Mathieu solve must grow past the starting truncation here
        code, out = run_cli(
            ["projector-expectations", "--hbar-beta2", "0.125", "--nu-tilde", "138,150"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 12
        for nut in (138.0, 150.0):
            plus, minus = dense_projectors(0.125, nut, 6)
            for row in [r for r in rows if float(r[1]) == nut]:
                n, p_plus, p_minus, total = int(row[2]), float(row[3]), float(row[4]), float(row[5])
                assert 0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0
                assert total >= 1.0 - 1e-6
                assert abs(p_plus - plus[n]) <= 1e-10
                assert abs(p_minus - minus[n]) <= 1e-10


    def test_sweep_makes_one_eigensolve_per_nu_tilde(self, eigensolves, tmp_path):
        # every t at one nu_tilde shares q = 4 nu_tilde, exactly, and the
        # truncation; from each (t, nu_tilde) pair's own parameters q would
        # differ by an ulp between these t, which are not powers of two
        argv = ["projector-expectations", "--hbar-beta2", "0.1,0.3,0.7", "--nu-tilde", "0.1:100:20:log"]
        assert cli.main([*argv, "--out", str(tmp_path / "p.csv")]) == 0
        expected = [4.0 * nut for nut in np.geomspace(0.1, 100.0, 20)]
        assert [q for _, q in eigensolves] == expected

    def test_one_normalization_per_t(self, monkeypatch, capsys):
        # 3 t x 5 nu_tilde grid points, run nu_tilde-major: each t recurs
        # at every nu_tilde and is normalized once
        calls = []
        original = costratified.norm_squared

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(costratified, "norm_squared", counting)
        args = ["projector-expectations", "--hbar-beta2", "0.03125,0.125,0.5", "--nu-tilde", "0.1:100:5:log"]
        code, out = run_cli(args, capsys)
        assert code == 0
        assert len(parse_csv(out)[1]) == 3 * 5 * 6
        assert sorted(calls) == [0.03125, 0.125, 0.5]

    @pytest.mark.parametrize("t_values", ["1e-12", "1e-12,0.125"])
    def test_vertex_state_past_the_row_bound_is_refused_as_states_refuses_it(self, t_values, monkeypatch):
        # the 8.9e6 rows are the vertex state's at t = 1e-12, not the
        # Mathieu levels', and the refusal comes before any solve
        solves = []
        monkeypatch.setattr(mathieu, "solve_many", lambda *args, **kwargs: solves.append(args))
        projector = run_quiet(["projector-expectations", "--hbar-beta2", t_values, "--nu-tilde", "1"])
        state = run_quiet(["states", "--state", "psi-plus", "--hbar-beta2", "1e-12"])
        assert projector == state == (3, "", "numerical failure: trunc=8.944e+06 at t=1e-12 is past 524288 rows\n")
        assert solves == []


class TestDecomp:
    def test_degree_two_enumeration(self, capsys):
        code, out = run_cli(["decomp", "--s", "2", "--k", "2"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s", "k", "index", "exponents", "in_kernel"]
        assert rows == [["2", "2", "0", "2 0", "0"], ["2", "2", "1", "0 1", "1"]]

    def test_svg_not_supported(self):
        # decomp has no plot and takes no --format: argparse refuses the flag
        code, out, err = run_refused(["decomp", "--s", "2", "--k", "2", "--format", "svg"])
        assert code == 2 and out == ""
        assert err.endswith("error: unrecognized arguments: --format svg\n")

    @pytest.mark.parametrize("s, k, rows", [(1500, 0, 1), (2000, 1, 1), (100000, 3, 3)])
    def test_large_rank_bound(self, s, k, rows, capsys):
        # s far above k: a level of recursion per part would pass Python's limit
        code, out = run_cli(["decomp", "--s", str(s), "--k", str(k)], capsys)
        assert code == 0
        _, table = parse_csv(out)
        assert len(table) == rows
        assert all(len(row[3].split()) == s for row in table)


#: the ``OPTIONS`` keys each command takes, as a flag or a config line,
#: besides ``--config``: exactly those its handler reads
SHARED_OPTIONS = {
    "tunneling": ("out", "format", "hbar", "beta2", "hbar_beta2"),
    "spectrum": ("out", "format", "hbar", "beta2", "coupling_g", "nu_tilde", "n_max"),
    "states": ("out", "format", "hbar", "beta2", "coupling_g", "nu_tilde", "hbar_beta2", "grid"),
    "projector-expectations": (
        "out", "format", "hbar", "beta2", "coupling_g", "nu_tilde", "hbar_beta2", "n_max",
    ),
    "decomp": ("out",),
    "geometry-verify": ("out",),
    "verify": ("out",),
}
#: each command's handler, and the flags it requires
HANDLERS = {
    "tunneling": ("cmd_tunneling", []),
    "spectrum": ("cmd_spectrum", []),
    "states": ("cmd_states", ["--state", "xi"]),
    "projector-expectations": ("cmd_projector_expectations", []),
    "decomp": ("cmd_decomp", ["--s", "2", "--k", "2"]),
    "geometry-verify": ("cmd_verify", []),
    "verify": ("cmd_verify", []),
}
#: a value for each key, spelled as its flag and its config line take it
OPTION_VALUES = {
    "out": "-", "format": "csv", "hbar": "2.0", "beta2": "0.5", "coupling_g": "1.5",
    "nu_tilde": "1", "hbar_beta2": "0.25", "n_max": "3", "grid": "5",
}


#: the model keys each ``states`` state takes on their own: a vertex state
#: reads t alone and an eigenfunction nu_tilde alone, which hbar and beta2
#: feed only with coupling_g
STATE_OPTIONS = {
    "psi-plus": ("hbar", "beta2", "hbar_beta2"),
    "psi-minus": ("hbar", "beta2", "hbar_beta2"),
    "xi": ("coupling_g", "nu_tilde"),
}
#: the coordinate each state reads, and the value each model key of
#: ``OPTION_VALUES`` gives it alone, as its config records it
STATE_COORDINATE = {"psi-plus": "hbar_beta2", "psi-minus": "hbar_beta2", "xi": "nu_tilde"}
COORDINATE_VALUES = {
    "hbar": "2.0", "beta2": "0.5", "hbar_beta2": "0.25", "coupling_g": repr(1 / 1.5**2), "nu_tilde": "1.0",
}
#: every flag of every command given twice, each with a value its parser
#: takes, and the flag the refusal names
TWICE = [
    *(([command, *HANDLERS[command][1], *[flag, OPTION_VALUES.get(key, "run.cfg")] * 2], flag)
      for command in sorted(SHARED_OPTIONS) for key in ("config", *SHARED_OPTIONS[command])
      for flag in ["--" + key.replace("_", "-")]),
    (["states", "--state", "xi", "--state", "xi"], "--state"),
    (["states", "--state", "xi", "--level", "1", "--level", "2"], "--level"),
    (["decomp", "--s", "2", "--s", "3", "--k", "2"], "--s"),
    (["decomp", "--s", "2", "--k", "2", "--k", "2"], "--k"),
    (["spectrum", "--nu-tilde=1", "--nu-tilde=2"], "--nu-tilde"),
]


class TestOptionScope:
    def test_tables_cover_every_command_and_key(self):
        code, out, _ = run_refused(["--help"])
        commands = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
        assert code == 0 and set(SHARED_OPTIONS) == set(HANDLERS) == set(commands)
        assert set(OPTION_VALUES) == set(cli.OPTIONS)
        assert sum(map(len, SHARED_OPTIONS.values())) == 31

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(OPTION_VALUES))
    @pytest.mark.parametrize("command", sorted(SHARED_OPTIONS))
    def test_command_takes_exactly_the_keys_it_reads(self, command, key, source, tmp_path, monkeypatch):
        # a key the command takes reaches its handler with the flag's type;
        # any other exits 2 before the handler runs, naming the key
        calls = []
        handler, required = HANDLERS[command]
        monkeypatch.setattr(cli, handler, lambda args, settings: calls.append(settings) or 0)
        if source == "flag":
            given = ["--" + key.replace("_", "-"), OPTION_VALUES[key]]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {OPTION_VALUES[key]}\n")
            given = ["--config", str(config)]
        argv = [command, *required, *given]
        if key in SHARED_OPTIONS[command]:
            assert run_quiet(argv) == (0, "", "")
            assert calls == [{key: cli.OPTIONS[key]["type"](OPTION_VALUES[key])}]
            return
        if source == "flag":
            code, out, err = run_refused(argv)
            assert err.endswith(f"error: unrecognized arguments: {' '.join(given)}\n")
        else:
            code, out, err = run_quiet(argv)
            only = ", ".join(SHARED_OPTIONS[command])
            assert err == f"error: {config}:1: this command takes no {key!r}, only {only}\n"
        assert code == 2 and out == "" and calls == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_spectrum_takes_no_hbar_beta2_with_coupling(self, source, tmp_path):
        # the energies do not depend on t, so hbar_beta2 is refused before
        # the coupling could make it ambiguous
        if source == "flag":
            code, out, err = run_refused(["spectrum", "--coupling-g", "0.5", "--hbar-beta2", "0.25"])
            assert err.endswith("error: unrecognized arguments: --hbar-beta2 0.25\n")
        else:
            config = tmp_path / "run.cfg"
            config.write_text("coupling_g = 0.5\nhbar_beta2 = 0.25\n")
            code, out, err = run_quiet(["spectrum", "--config", str(config)])
            assert err.startswith(f"error: {config}:2: this command takes no 'hbar_beta2'")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("state", ["psi-plus", "psi-minus"])
    def test_level_of_a_vertex_state_exits_2(self, state):
        code, out, err = run_quiet(["states", "--state", state, "--level", "2"])
        assert code == 2 and out == ""
        assert err == f"error: --level selects an eigenfunction of --state xi, not of {state}\n"

    def test_xi_without_level_is_level_0(self):
        args = ["states", "--state", "xi", "--nu-tilde", "6", "--grid", "9"]
        result = run_quiet(args)
        assert result[0] == 0 and result == run_quiet([*args, "--level", "0"])
        assert '"state":"xi_0"' in result[1].split("\n")[0]

    @pytest.mark.parametrize(
        "args, config_text",
        [
            (["--hbar", "2", "--beta2", "3", "--nu-tilde", "1"], None),
            (["--hbar", "2"], None),
            (["--beta2", "3", "--n-max", "2"], None),
            ([], "hbar = 2\nnu_tilde = 1\n"),
        ],
    )
    def test_spectrum_hbar_or_beta2_without_coupling_exits_2(self, args, config_text, tmp_path):
        # with no coupling, hbar and beta2 derive nothing the energies read
        if config_text is not None:
            config = tmp_path / "run.cfg"
            config.write_text(config_text)
            args = [*args, "--config", str(config)]
        code, out, err = run_quiet(["spectrum", *args])
        assert code == 2 and out == ""
        assert err == (
            "error: hbar and beta2 derive nu_tilde only with coupling_g; supply it, or nu_tilde alone\n"
        )

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(COORDINATE_VALUES))
    @pytest.mark.parametrize("state", sorted(STATE_OPTIONS))
    def test_state_takes_only_the_coordinate_it_reads(self, state, key, source, tmp_path):
        # a model key that feeds the state's coordinate runs; any other
        # exits 2, where it used to be recorded and then ignored
        if source == "flag":
            given = ["--" + key.replace("_", "-"), OPTION_VALUES[key]]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {OPTION_VALUES[key]}\n")
            given = ["--config", str(config)]
        code, out, err = run_quiet(["states", "--state", state, "--grid", "3", *given])
        reads = STATE_COORDINATE[state]
        if key in STATE_OPTIONS[state]:
            assert code == 0 and err == ""
            assert f'"{reads}":[{COORDINATE_VALUES[key]}]' in out.split("\n")[0]
            return
        assert code == 2 and out == ""
        if key in ("hbar", "beta2"):
            assert err == (
                "error: hbar and beta2 derive nu_tilde only with coupling_g; supply it, or nu_tilde alone\n"
            )
        else:
            assert err == f"error: {key} does not enter this run, which reads only {reads}\n"

    def test_eigenfunction_takes_hbar_and_beta2_with_coupling(self):
        # nu_tilde = 1/(g^2 hbar^2 beta2) = 1/3 for g = 0.5, hbar = 2, beta2 = 3
        args = ["states", "--state", "xi", "--grid", "5"]
        result = run_quiet([*args, "--hbar", "2", "--beta2", "3", "--coupling-g", "0.5"])
        assert result[0] == 0 and result == run_quiet([*args, "--nu-tilde", repr(1 / 3)])

    @pytest.mark.parametrize("state", sorted(STATE_OPTIONS))
    def test_config_records_only_the_coordinate_read(self, state):
        code, out, _ = run_quiet(["states", "--state", state, "--grid", "3"])
        config = json.loads(out.split("\n")[0].split(" config=", 1)[1])
        assert code == 0 and set(config) == {"command", "format", "grid", "state", STATE_COORDINATE[state]}

    @pytest.mark.parametrize("argv, flag", TWICE, ids=[" ".join(argv) for argv, _ in TWICE])
    def test_flag_given_twice_exits_2(self, argv, flag, monkeypatch):
        # the last value would win silently; argparse refuses the second
        # before the handler runs, naming the flag
        calls = []
        monkeypatch.setattr(cli, HANDLERS[argv[0]][0], lambda args, settings: calls.append(settings) or 0)
        code, out, err = run_refused(argv)
        assert code == 2 and out == "" and calls == []
        assert err.startswith("usage: ") and err.endswith(f"error: argument {flag}: may be given only once\n")

    @pytest.mark.parametrize(
        "args",
        [
            ["tunneling", "--hbar-beta2", "1,,2"],
            ["spectrum", "--nu-tilde", "1,,2,"],
            ["spectrum", "--nu-tilde", ",1"],
            ["spectrum", "--nu-tilde", " "],
            ["projector-expectations", "--nu-tilde", "1,"],
            ["states", "--state", "psi-plus", "--hbar-beta2", ""],
        ],
    )
    def test_empty_list_entry_exits_2(self, args):
        code, out, err = run_quiet(args)
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad value list {args[-1].strip()!r}: ") and err.count("\n") == 1


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("nu_tilde = 0,6\nn_max = 2\n")
        code, out = run_cli(
            ["spectrum", "--config", str(config), "--nu-tilde", "0"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert {row[0] for row in rows} == {"0.0"}

    @pytest.mark.parametrize(
        "text, key, line, first",
        [
            ("nu_tilde = 1\nnu_tilde = 2\n", "nu_tilde", 2, 1),
            ("nu_tilde = 1\n# again\n\nnu_tilde = 1\n", "nu_tilde", 4, 1),
            ("n_max = 2\nnu_tilde = 1\nformat = csv\nn_max = 3\n", "n_max", 4, 1),
        ],
    )
    def test_key_set_twice_exits_2(self, text, key, line, first, tmp_path):
        # the last line would win silently; the refusal names both lines
        config = tmp_path / "run.cfg"
        config.write_text(text)
        code, out, err = run_quiet(["spectrum", "--config", str(config)])
        assert code == 2 and out == ""
        assert err == f"error: {config}:{line}: {key} is already set on line {first}\n"

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("volume = 12\n")
        assert cli.main(["spectrum", "--config", str(config)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "option, path",
        [("--config", "missing.cfg"), ("--config", "."), ("--out", "missing/x.csv")],
    )
    def test_file_errors_exit_2(self, option, path, tmp_path, capsys):
        code = cli.main(["tunneling", "--hbar-beta2", "1", option, str(tmp_path / path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_coupling_and_nu_tilde_conflict(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("coupling_g = 2.0\nnu_tilde = 6\n")
        assert cli.main(["spectrum", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_values_take_the_flag_type(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n_max = 2\nhbar = 0.5\nnu_tilde = 0,6\nformat = svg\nout = -\n")
        assert cli.read_config_file(str(config), SHARED_OPTIONS["spectrum"]) == {
            "n_max": 2,
            "hbar": 0.5,
            "nu_tilde": "0,6",
            "format": "svg",
            "out": "-",
        }

    @pytest.mark.parametrize("line", ["n_max = 2.5", "format = pdf", "hbar = big"])
    def test_bad_value_exits_2_naming_the_line(self, line, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"# sweep\n{line}\n")
        code, out, err = run_quiet(["spectrum", "--config", str(config)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {config}:2: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, config_text",
        [
            (["tunneling", "--hbar", "-1", "--beta2", "-1"], None),
            (["states", "--state", "xi", "--hbar", "-2", "--beta2", "-0.5", "--coupling-g", "1"], None),
            (["tunneling"], "hbar = -1\nbeta2 = -1\n"),
            (["states", "--state", "xi"], "hbar = -2\nbeta2 = -0.5\ncoupling_g = 1\n"),
        ],
    )
    def test_negative_hbar_exits_2(self, args, config_text, tmp_path):
        # the product hbar * beta2 is positive; hbar itself is not
        if config_text is not None:
            config = tmp_path / "run.cfg"
            config.write_text(config_text)
            args = [*args, "--config", str(config)]
        code, out, err = run_quiet(args)
        assert code == 2 and out == ""
        assert err.startswith("error: hbar must be positive and finite") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, config_text",
        [
            (["tunneling", "--hbar", "0.5", "--hbar-beta2", "1"], None),
            (["states", "--state", "psi-plus", "--beta2", "2", "--hbar-beta2", "0.125"], None),
            (["tunneling", "--hbar-beta2", "1"], "hbar = 0.5\n"),
            (["projector-expectations"], "hbar_beta2 = 0.125\nbeta2 = 2\ncoupling_g = 1\n"),
        ],
    )
    def test_hbar_and_hbar_beta2_conflict(self, args, config_text, tmp_path):
        if config_text is not None:
            config = tmp_path / "run.cfg"
            config.write_text(config_text)
            args = [*args, "--config", str(config)]
        code, out, err = run_quiet(args)
        assert code == 2 and out == ""
        assert err == "error: supply either hbar/beta2 or hbar_beta2, not both\n"

    @pytest.mark.parametrize(
        "args, config_text",
        [
            (["projector-expectations", "--coupling-g", "0.5", "--hbar-beta2", "0.25"], None),
            (["projector-expectations"], "coupling_g = 0.5\nhbar_beta2 = 0.25\n"),
            (["projector-expectations", "--hbar-beta2", "0.25"], "coupling_g = 0.5\n"),
        ],
    )
    def test_coupling_with_hbar_beta2_is_ambiguous(self, args, config_text, tmp_path):
        # nu_tilde = 1/(g^2 hbar t) needs an hbar that hbar_beta2 does not fix;
        # it used to be taken at hbar = 1, giving nu_tilde = 4 here
        if config_text is not None:
            config = tmp_path / "run.cfg"
            config.write_text(config_text)
            args = [*args, "--config", str(config)]
        code, out, err = run_quiet(args)
        assert code == 2 and out == ""
        assert err == (
            "error: coupling_g with hbar_beta2 is ambiguous; "
            "supply nu_tilde, or hbar and beta2 instead of hbar_beta2\n"
        )

    def test_coupling_parameterization(self, capsys):
        # nu_tilde = 1/(g^2 hbar^2 beta2) = 4 for g = 0.5, hbar = beta2 = 1
        code, out = run_cli(
            ["spectrum", "--coupling-g", "0.5", "--hbar", "1.0", "--beta2", "1.0", "--n-max", "2"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert {row[0] for row in rows} == {"4.0"}


class TestVerifyCommands:
    def test_geometry_verify_passes(self, capsys):
        code, out = run_cli(["geometry-verify"], capsys)
        assert code == 0
        assert "[FAIL]" not in out
        assert out.strip().endswith("checks passed")

    def test_full_verify_passes(self, capsys):
        code, out = run_cli(["verify"], capsys)
        assert code == 0
        assert "[FAIL]" not in out

    def test_injected_sign_flip_is_detected(self, capsys, monkeypatch):
        # giving the plus-vertex overlap formula the minus weights flips its
        # alternating signs; the cross-checks (route consistency and parity
        # separation) must trip.  Only spectrum's binding is patched, so the
        # vertex states of the other route stay right.
        monkeypatch.setattr(
            spectrum,
            "vertex_weights",
            lambda stratum, t, count: costratified.vertex_weights(Stratum.MINUS, t, count),
        )
        code, out = run_cli(["verify"], capsys)
        assert code == 1
        assert "[FAIL] projector-route-consistency" in out
        assert "[FAIL] parity-separation" in out

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("fmt", ["svg", "csv"])
    @pytest.mark.parametrize("command", ["verify", "geometry-verify"])
    def test_svg_is_refused_before_any_check(self, command, fmt, source, tmp_path, monkeypatch):
        # the report is text, so the command takes no format, csv included:
        # exit 2, no check run, nothing written.  argparse refuses the flag,
        # and the config reader the line, in one error line naming the key
        from plaquette_qgauge import verify

        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "all_checks", never)
        monkeypatch.setattr(verify, "geometry_checks", never)
        path = tmp_path / f"report.{fmt}"
        if source == "flag":
            code, out, err = run_refused([command, "--format", fmt, "--out", str(path)])
            assert err.endswith(f"error: unrecognized arguments: --format {fmt}\n")
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"format = {fmt}\n")
            code, out, err = run_quiet([command, "--config", str(config), "--out", str(path)])
            assert err == f"error: {config}:1: this command takes no 'format', only out\n"
        assert code == 2 and out == ""
        assert not path.exists()


class TestDispatch:
    def test_main_calls_the_handler_bound_on_the_module(self, monkeypatch):
        # the command table is built per call, so a patched (or traced)
        # handler is the one that runs
        calls = []
        monkeypatch.setattr(cli, "cmd_tunneling", lambda args, settings: calls.append(settings) or 0)
        assert cli.main(["tunneling", "--hbar-beta2", "1"]) == 0
        assert calls == [{"hbar_beta2": "1"}]


class TestEntryPoint:
    @staticmethod
    def _patch_run(monkeypatch, calls, flush=None):
        """Record the collector calls, ``main``, the stream flushes and ``os._exit`` of ``run``."""
        for name in ("disable", "freeze", "enable"):
            monkeypatch.setattr(gc, name, lambda name=name: calls.append(name))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
        for name in ("stdout", "stderr"):
            stream = types.SimpleNamespace(flush=flush or (lambda name=name: calls.append(f"flush {name}")))
            monkeypatch.setattr(sys, name, stream)
        monkeypatch.setattr(os, "_exit", lambda code: calls.append(f"_exit {code}"))

    def test_run_keeps_the_collector_off_long_lived_objects(self, monkeypatch):
        # the import runs with the collector off and the command with it on;
        # what is alive when the command returns lives until the process
        # ends, with both streams flushed, without the interpreter's teardown
        from plaquette_qgauge import __main__ as entry

        calls = []
        self._patch_run(monkeypatch, calls)
        entry.run()
        assert calls == ["disable", "freeze", "enable", "main", "flush stdout", "flush stderr", "_exit 7"]

    def test_a_stream_that_cannot_be_flushed_takes_the_normal_exit(self, monkeypatch):
        from plaquette_qgauge import __main__ as entry

        def broken():
            raise BrokenPipeError

        calls = []
        self._patch_run(monkeypatch, calls, flush=broken)
        with pytest.raises(SystemExit) as excinfo:
            entry.run()
        assert calls == ["disable", "freeze", "enable", "main"]
        assert excinfo.value.code == 7

    @pytest.mark.parametrize("t, code", [("0.01:5:2000:log", 0), ("x", 2)])
    def test_process_keeps_its_output_and_exit_code(self, t, code):
        # stdout and stderr are pipes, so block-buffered: the flush before
        # os._exit is what writes them
        args = ["tunneling", "--hbar-beta2", t]
        result = subprocess.run(
            [sys.executable, "-m", "plaquette_qgauge", *args], capture_output=True, text=True, env=package_env()
        )
        assert (result.returncode, result.stdout, result.stderr) == run_quiet(args)
        assert result.returncode == code

    def test_console_script_target_is_the_entry_function(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        module, _, name = scripts["plaquette-qgauge"].partition(":")
        target = getattr(import_module(module), name)
        assert callable(target)
        assert target is import_module("plaquette_qgauge.__main__").run


class TestSvgOutput:
    def test_tunneling_svg(self, tmp_path):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for path in paths:
            code = cli.main(
                ["tunneling", "--hbar-beta2", "0.1:2:12:log", "--format", "svg", "--out", str(path)]
            )
            assert code == 0
        text = paths[0].read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_states_svg(self, capsys):
        code, out = run_cli(
            ["states", "--state", "psi-minus", "--grid", "33", "--format", "svg"], capsys
        )
        assert code == 0
        assert out.startswith("<svg")

    def test_projector_svg_has_one_polyline_per_t_and_level(self, capsys):
        code, out = run_cli(
            [
                "projector-expectations",
                "--hbar-beta2",
                "0.125,0.5",
                "--nu-tilde",
                "1,10",
                "--n-max",
                "3",
                "--format",
                "svg",
            ],
            capsys,
        )
        assert code == 0
        polylines = re.findall(r'<polyline [^>]*points="([^"]*)"/>', out)
        labels = re.findall(r'font-size="11" fill="[^"]*">([^<]*)</text>', out)
        assert labels == [f"P+ n={n} t={t}" for t in ("0.125", "0.5") for n in range(3)]
        assert len(polylines) == 6
        assert all(len(points.split()) == 2 for points in polylines)

    def test_spectrum_svg_has_one_polyline_per_level(self, capsys):
        code, out = run_cli(
            ["spectrum", "--nu-tilde", "0,3,6,12,24", "--n-max", "4", "--format", "svg"], capsys
        )
        assert code == 0
        polylines = re.findall(r'<polyline [^>]*points="([^"]*)"/>', out)
        labels = re.findall(r'font-size="11" fill="[^"]*">([^<]*)</text>', out)
        assert labels == [f"E_{n}" for n in range(4)]
        assert [len(points.split()) for points in polylines] == [5] * 4

    def test_log_x_svg_refuses_non_positive_x(self, tmp_path):
        # log10(0) has no place on the axis; the run writes nothing
        path = tmp_path / "p.svg"
        args = ["--hbar-beta2", "0.125", "--nu-tilde", "0,1,10", "--n-max", "1", "--format", "svg"]
        code, out, err = run_quiet(["projector-expectations", *args, "--out", str(path)])
        assert code == 2
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "x > 0" in err
        assert not path.exists()

    def test_svg_series_are_keyed_by_value_not_label(self, capsys):
        # both t print as "0.1" under :g; they stay two polylines of two points
        code, out = run_cli(
            [
                "projector-expectations",
                "--hbar-beta2",
                "0.1,0.1000001",
                "--nu-tilde",
                "1,10",
                "--n-max",
                "1",
                "--format",
                "svg",
            ],
            capsys,
        )
        assert code == 0
        polylines = re.findall(r'<polyline [^>]*points="([^"]*)"/>', out)
        assert [len(points.split()) for points in polylines] == [2, 2]


class TestImportScope:
    def test_each_command_loads_only_its_layers(self, tmp_path):
        # importing cli loads what tunneling needs; the Mathieu layer, the
        # geometry and the verifiers are imported by the commands that use them
        code = (
            "import sys\n"
            "def loaded(*layers):\n"
            "    return [name for name in layers if f'plaquette_qgauge.{name}' in sys.modules]\n"
            "import plaquette_qgauge.cli as cli\n"
            "assert not loaded('mathieu', 'spectrum', 'characters', 'geometry', 'verify'), loaded(\n"
            "    'mathieu', 'spectrum', 'characters', 'geometry', 'verify')\n"
            "assert 'scipy' not in sys.modules\n"
            "assert cli.main(['tunneling', '--out', sys.argv[1]]) == 0\n"
            "assert not loaded('mathieu'), 'mathieu loaded by tunneling'\n"
            "assert cli.main(['decomp', '--s', '3', '--k', '6', '--out', sys.argv[1]]) == 0\n"
            "assert not loaded('mathieu', 'spectrum'), loaded('mathieu', 'spectrum')\n"
            "assert cli.main(['spectrum', '--out', sys.argv[1]]) == 0\n"
            "assert loaded('mathieu', 'spectrum') == ['mathieu', 'spectrum']\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=package_env(),
        )
        assert result.returncode == 0, result.stderr

    @staticmethod
    def loaded_by(argv, tmp_path, *modules):
        """Which of ``modules`` a fresh process holds after running ``argv``."""
        code = (
            "import sys\n"
            "import plaquette_qgauge.cli as cli\n"
            f"assert cli.main({[*argv, '--out', str(tmp_path / 'out')]!r}) == 0\n"
            f"print(*[name for name in {list(modules)!r} if name in sys.modules])\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env())
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tunneling", "--hbar-beta2", "0.1:2:5"],
            ["spectrum", "--nu-tilde", "0,1", "--n-max", "2"],
            ["projector-expectations", "--hbar-beta2", "0.125", "--nu-tilde", "1,2", "--n-max", "2"],
        ],
    )
    def test_grid_runs_load_no_model_parameters(self, argv, tmp_path):
        # ModelParams (and with it dataclasses) is read only to turn hbar,
        # beta2 and coupling_g into (t, nu_tilde)
        assert self.loaded_by(argv, tmp_path, "plaquette_qgauge.params", "dataclasses") == []

    def test_model_options_load_model_parameters(self, tmp_path):
        argv = ["tunneling", "--hbar", "2", "--beta2", "0.5"]
        assert self.loaded_by(argv, tmp_path, "plaquette_qgauge.params", "dataclasses") == [
            "plaquette_qgauge.params", "dataclasses"]

    @pytest.mark.parametrize("command", ["verify", "geometry-verify"])
    def test_verify_loads_no_json(self, command, tmp_path):
        # json writes the config line of a data command; a report has none
        assert self.loaded_by([command], tmp_path, "json", "plaquette_qgauge.params") == []


class TestParserScope:
    """A run builds the parser of the command it names, and prints what the full parser prints."""

    @pytest.mark.parametrize("command", list(SHARED_OPTIONS))
    @pytest.mark.parametrize("tail", [["-h"], ["--no-such-flag"], ["--config"]])
    def test_one_command_parser_prints_as_the_full_one(self, command, tail):
        # -h prints the command's help, --no-such-flag the top-level usage
        # line (which names every command), --config the command's usage
        argv = [command, *HANDLERS[command][1], *tail]
        alone = run_refused(argv, cli.build_parser(command).parse_args)
        assert alone == run_refused(argv, cli.build_parser().parse_args)
        assert alone[0] == (0 if tail == ["-h"] else 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tunneling", "--hbar-beta2", "1"],
            ["verify", "--out", os.devnull],
            ["--version"],
            ["--help"],
            [],
            ["no-such-command"],
            ["--hbar-beta2", "1", "tunneling"],
        ],
    )
    def test_main_builds_only_the_named_subparser(self, argv, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(
            argparse._SubParsersAction, "add_parser", lambda sub, name: names.append(name) or add_parser(sub, name)
        )
        with contextlib.suppress(SystemExit):
            run_quiet(argv)
        assert names == (argv[:1] if argv[:1] in (["tunneling"], ["verify"]) else list(SHARED_OPTIONS))


#: each data command on a small grid, its float columns, and the config key
#: that holds the values of its first column
WRITER_CASES = {
    "tunneling": (
        ["tunneling", "--hbar-beta2", "0.05:3:7:log"],
        {"hbar_beta2", "overlap", "probability"},
        "hbar_beta2",
    ),
    "spectrum": (
        ["spectrum", "--nu-tilde", "0,0.3,6", "--n-max", "3"],
        {"nu_tilde", "E_n", "E_gap"},
        "nu_tilde",
    ),
    "states": (["states", "--state", "psi-minus", "--grid", "9"], {"x", "value"}, "grid"),
    "projector-expectations": (
        ["projector-expectations", "--hbar-beta2", "0.125,0.5", "--nu-tilde", "0.1:10:3:log", "--n-max", "2"],
        {"hbar_beta2", "nu_tilde", "P_plus", "P_minus", "sum_P_plus"},
        "hbar_beta2",
    ),
    "decomp": (["decomp", "--s", "2", "--k", "4"], set(), "s"),
}


class TestWriter:
    @pytest.mark.parametrize("command", sorted(WRITER_CASES))
    def test_column_writer_contract(self, command, capsys):
        args, float_columns, grid_key = WRITER_CASES[command]
        code, out = run_cli(args, capsys)
        assert code == 0
        comment, header, *lines = out.split("\n")
        assert comment.startswith("# plaquette-qgauge v")
        assert lines.pop() == ""
        names = header.split(",")
        rows = [line.split(",") for line in lines]
        assert rows and all(len(row) == len(names) for row in rows)
        for name, cells in zip(names, zip(*rows)):
            if name in float_columns:
                assert all(cell == repr(float(cell)) for cell in cells), name
        config = json.loads(comment.partition(" config=")[2])
        first = list(dict.fromkeys(row[0] for row in rows))
        if command == "states":
            # the x column samples [0, pi] at the config's grid count
            assert [float(x) for x in first] == np.linspace(0.0, math.pi, config["grid"]).tolist()
        else:
            grid = config[grid_key]
            assert [json.loads(cell) for cell in first] == (grid if isinstance(grid, list) else [grid])


class TestBrokenPipe:
    def test_closed_pipe_exits_quietly(self):
        # stdout block-buffered, as in a shell pipeline; the reader stops
        # after 100 bytes of a 1 MB sweep
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "plaquette_qgauge", "tunneling", "--hbar-beta2", "0.01:5:20000:log"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert "Traceback" not in err
        assert err == ""
        assert code == cli.EXIT_BROKEN_PIPE


class TestOutOfMemory:
    #: address space of the child; importing the package at one BLAS thread
    #: needs well under half of it, and each command below asks for more in
    #: one array, so it fails before touching the memory
    LIMIT = 512 * 2**20

    @pytest.mark.parametrize(
        "args",
        [
            ["states", "--state", "psi-plus", "--grid", "2000000000"],
            ["spectrum", "--nu-tilde", "1:2:100000000"],
        ],
    )
    def test_allocation_failure_exits_3_with_one_line(self, args):
        # the child lowers its own limit before importing the package
        code = (
            "import resource, runpy\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({self.LIMIT}, {self.LIMIT}))\n"
            "runpy.run_module('plaquette_qgauge', run_name='__main__')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, env=package_env(OPENBLAS_NUM_THREADS="1"), timeout=120,
        )
        assert result.returncode == 3
        assert result.stderr.startswith("out of memory: Unable to allocate")
        assert result.stderr.count("\n") == 1

    def test_bare_memory_error(self, monkeypatch):
        def exhausted(args, settings):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_tunneling", exhausted)
        assert run_quiet(["tunneling"]) == (3, "", "out of memory: an allocation failed\n")
