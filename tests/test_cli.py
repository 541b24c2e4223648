import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import plaquette_qgauge
from plaquette_qgauge import Stratum, cli, costratified, spectrum

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
        # scipy.linalg is most of the import time, and only an eigensolve
        # past mathieu._DENSE_MAX rows or past the dense budget needs it:
        # the defaults stay within both
        code = (
            "import sys\n"
            "import plaquette_qgauge.cli as cli\n"
            "assert 'scipy' not in sys.modules, 'loaded by import'\n"
            "for argv in (['tunneling'], ['spectrum'], ['projector-expectations'], ['verify'],\n"
            "             ['states', '--state', 'xi', '--level', '3', '--nu-tilde', '6']):\n"
            "    assert cli.main([*argv, '--out', sys.argv[1]]) == 0, argv\n"
            "    assert 'scipy' not in sys.modules, f'loaded by {argv}'\n"
            "argv = ['spectrum', '--nu-tilde', '1e5', '--n-max', '40', '--out', sys.argv[1]]\n"
            "assert cli.main(argv) == 0\n"
            "assert 'scipy' in sys.modules, 'not loaded past _DENSE_MAX rows'\n"
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
        ],
    )
    def test_non_finite_grid_exits_2(self, args):
        code, out, err = run_quiet(args)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("nu_tilde", ["1e20", "1e300"])
    @pytest.mark.parametrize(
        "command", [["spectrum"], ["states", "--state", "xi"], ["projector-expectations"]]
    )
    def test_huge_nu_tilde_exits_3(self, command, nu_tilde):
        # the truncation needed is far past the row bound; it is refused
        # before anything of that size is allocated
        code, out, err = run_quiet([*command, "--nu-tilde", nu_tilde])
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1


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

    def test_bad_selector_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["states", "--state", "nonsense"])
        assert excinfo.value.code == 2
        capsys.readouterr()

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
        # 60 levels sum to 0.97146 here, and the cap forbids doubling them
        monkeypatch.setattr(spectrum, "_COMPLETENESS_MAX", 60)
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


    def test_one_normalization_per_t(self, monkeypatch, capsys):
        # 3 t x 5 nu_tilde grid points, run nu_tilde-major: each t recurs
        # at every nu_tilde and is normalized once
        spectrum._normalization.cache_clear()
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


class TestDecomp:
    def test_degree_two_enumeration(self, capsys):
        code, out = run_cli(["decomp", "--s", "2", "--k", "2"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s", "k", "index", "exponents", "in_kernel"]
        assert rows == [["2", "2", "0", "2 0", "0"], ["2", "2", "1", "0 1", "1"]]

    def test_svg_not_supported(self, capsys):
        assert cli.main(["decomp", "--s", "2", "--k", "2", "--format", "svg"]) == 2
        capsys.readouterr()


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
        assert cli.read_config_file(str(config)) == {
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
            (["states", "--state", "xi", "--hbar", "-2", "--beta2", "-0.5"], None),
            (["tunneling"], "hbar = -1\nbeta2 = -1\n"),
            (["states", "--state", "xi"], "hbar = -2\nbeta2 = -0.5\n"),
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
            (["states", "--state", "xi", "--beta2", "2", "--hbar-beta2", "0.125"], None),
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
            (["states", "--state", "xi", "--coupling-g", "0.5", "--hbar-beta2", "0.25"], None),
            (["spectrum", "--coupling-g", "0.5", "--hbar-beta2", "0.25"], None),
            (["states", "--state", "xi"], "coupling_g = 0.5\nhbar_beta2 = 0.25\n"),
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


class TestDispatch:
    def test_main_calls_the_handler_bound_on_the_module(self, monkeypatch):
        # the command table is built per call, so a patched (or traced)
        # handler is the one that runs
        calls = []
        monkeypatch.setattr(cli, "cmd_tunneling", lambda args, settings: calls.append(settings) or 0)
        assert cli.main(["tunneling", "--hbar-beta2", "1"]) == 0
        assert calls == [{"hbar_beta2": "1"}]


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
