#!/usr/bin/env python3
"""Compare the command-line output of the working tree with that of a git revision.

    python scripts/output_gate.py REV

Exports REV's ``src/`` with ``git archive`` into a temporary directory and
runs one fixed list of commands against that export and against the
working tree's ``src/``: the four benchmark workloads at seeds 0 and 1 (their
arguments from ``perfbench/workloads.py``), the determinism configs of
``tests/test_acceptance.py``, every command at its defaults, six
commands that solve past 128 rows (``LARGE_Q``), a projector sweep at t
that are not powers of two (``Q_PER_NU_TILDE``), a projector sweep whose t
need different truncations (``MIXED_TRUNCATION``), three commands at the edges
of the vertex-state domain (``DOMAIN_EDGES``), two ranges whose step is
below the spacing of doubles (``GRID_EDGES``), the tunneling route switch
and cross-check band ends with the doubles either side (``BAND_EDGES``), a
log-x SVG with an x of 0, a ``decomp`` whose rank bound is far above its
degree, an eigenfunction at level 100,000 and two sweeps at a nu_tilde so
far past the domain edge that 4 nu_tilde overflows (``CLI_EDGES``), three
states on grids coarse enough to read the wall cells at x = 0 and x = pi
(``WALLS``), sixteen command lines that give a command an option it does
not read, an empty value-list entry, or a key twice (``IGNORED_OPTIONS``),
the top-level help, version, bare and unknown-command runs and each
command's help (``PARSER``), and ``scripts/make_figure_data.py`` (the working
tree's script on both sides, so only ``src/`` differs).  Each runs as a
fresh ``python -m plaquette_qgauge`` process under
``OPENBLAS_NUM_THREADS=1`` and ``=2``.  A command's result is its exit
code, stdout and stderr; a figure-data run's is every file it writes.

Prints each result that differs between the two sides, and exits 1 if any
does, else 0.  For a text part (exit code, stdout, stderr, a CSV or SVG
file) it also quotes the first differing line of each side, ``None`` where
that side has no such line.  For a CSV whose header and row count are the
same on both sides it then states the moves in numbers: for each column
with moved cells, how many moved, and for a numeric column the worst
absolute move |tree - rev| and the worst relative move |tree - rev| / |rev|.
Run from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import itertools
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIGURE_SCRIPT = ROOT / "scripts" / "make_figure_data.py"
THREADS = ("1", "2")
#: the determinism configs of tests/test_acceptance.py; ``{config}`` is a file
#: holding ``n_max = 2``
ACCEPTANCE = [
    ["tunneling", "--hbar-beta2", "0.05:3:20:log"],
    ["spectrum", "--nu-tilde", "0,6", "--n-max", "4"],
    ["states", "--state", "xi", "--level", "1", "--nu-tilde", "3", "--grid", "65"],
    ["projector-expectations", "--config", "{config}", "--hbar-beta2", "0.125", "--nu-tilde", "1,10"],
    ["decomp", "--s", "3", "--k", "6"],
    ["geometry-verify"],
    ["verify"],
]
#: commands with large truncations: the partial solve past
#: ``mathieu._FULL_MAX`` rows in blocks of 16 levels, the first block alone,
#: lone levels whose block is not the first (levels 700 and 2000 at q = 4,
#: 712 and 2012 rows), full solves past 128 rows from the completeness
#: doubling, and the one range of 960 levels on the block path (60 blocks
#: of about 1,707 rows)
LARGE_Q = [
    ["spectrum", "--nu-tilde", "1e4:1e8:40:log", "--n-max", "40"],
    ["states", "--state", "xi", "--level", "3", "--nu-tilde", "1e8"],
    ["states", "--state", "xi", "--level", "700", "--nu-tilde", "1"],
    ["states", "--state", "xi", "--level", "2000", "--nu-tilde", "1"],
    ["projector-expectations", "--hbar-beta2", "2", "--nu-tilde", "3000,10000"],
    ["projector-expectations", "--hbar-beta2", "8", "--nu-tilde", "5e5"],
]
#: a projector sweep at t that are not powers of two: there q = 4 nu_tilde
#: read from each (t, nu_tilde) parameter set would differ between the t by
#: an ulp, so this shows whether q depends on t
Q_PER_NU_TILDE = [
    ["projector-expectations", "--hbar-beta2", "0.1,0.3,0.7", "--nu-tilde", "0.1:100:30:log"],
]
#: a projector sweep whose t need different truncations at one nu_tilde:
#: t = 0.001 needs more vertex weights than Mathieu levels, and the t = 2
#: completeness ladders reach 240 levels
MIXED_TRUNCATION = [
    ["projector-expectations", "--hbar-beta2", "0.001,0.125,2", "--nu-tilde", "0.1:1e4:9:log"],
]
#: the edges of the vertex-state domain: the tunneling overlap underflows
#: to 0 just above the N^2 overflow, the psi-plus truncation is past 2**19
#: rows, and psi-minus at 89,451 rows still runs
DOMAIN_EDGES = [
    ["tunneling", "--hbar-beta2", "4e-206"],
    ["states", "--state", "psi-plus", "--hbar-beta2", "1e-200"],
    ["states", "--state", "psi-minus", "--hbar-beta2", "1e-8"],
]
#: ranges whose step is below the spacing of doubles, so they would repeat a
#: value; a grid must be strictly increasing
GRID_EDGES = [
    ["spectrum", "--nu-tilde", "1:1.0000000000000004:5"],
    ["tunneling", "--hbar-beta2", "1:1.0000000000000004:4"],
]
#: the tunneling routes' edges, each t and the double on either side: the
#: cross-check band's ends 0.25 and 2, and the switch from the dual route to
#: the direct one at 1
BAND_EDGES = [
    ["tunneling", "--hbar-beta2",
     "0.24999999999999997,0.25,0.25000000000000006,0.9999999999999999,1,1.0000000000000002,"
     "1.9999999999999998,2,2.0000000000000004"],
]
#: a log-x SVG with nu_tilde = 0, which has no logarithm, refused with exit
#: 2; a rank bound of 2000 with degree 1, one row of 2000 exponents; and
#: level 100,000 at q = 4, whose 100,012-row truncation is solved in the one
#: block that holds it; and nu_tilde = 1e308, past the domain edge, where
#: q = 4 nu_tilde would overflow to inf
CLI_EDGES = [
    ["projector-expectations", "--hbar-beta2", "0.125", "--nu-tilde", "0,1,10", "--n-max", "1",
     "--format", "svg"],
    ["decomp", "--s", "2000", "--k", "1"],
    ["states", "--state", "xi", "--level", "100000", "--nu-tilde", "1"],
    ["spectrum", "--nu-tilde", "1e308"],
    ["projector-expectations", "--hbar-beta2", "0.125", "--nu-tilde", "1e308"],
]
#: states whose first and last cells are the walls x = 0 and x = pi, where
#: every state vanishes: both vertex states, one at t = 1/128, and a strongly
#: coupled eigenfunction
WALLS = [
    ["states", "--state", "psi-minus", "--grid", "5"],
    ["states", "--state", "psi-plus", "--hbar-beta2", "0.0078125", "--grid", "5"],
    ["states", "--state", "xi", "--level", "0", "--nu-tilde", "400", "--grid", "9"],
]
#: options a command does not read, a value list with an empty entry, and
#: a key set twice: a flag or level none of the command's outputs depends
#: on, hbar and beta2 for spectrum or an eigenfunction without a coupling, a
#: coupling or nu_tilde for a vertex state, t for an eigenfunction, a format
#: where there is no plot; two lines of one config file (``{twice}``) that
#: set one key, a flag given twice, and ``--config`` given twice
IGNORED_OPTIONS = [
    ["tunneling", "--hbar-beta2", "0.5", "--nu-tilde", "3", "--n-max", "4"],
    ["spectrum", "--nu-tilde", "1", "--hbar-beta2", "0.3", "--grid", "5"],
    ["spectrum", "--hbar", "2", "--beta2", "3", "--nu-tilde", "1"],
    ["states", "--state", "psi-plus", "--level", "2"],
    ["projector-expectations", "--nu-tilde", "1", "--grid", "7"],
    ["decomp", "--s", "2", "--k", "2", "--format", "csv"],
    ["verify", "--nu-tilde", "5"],
    ["tunneling", "--hbar-beta2", "1,,2"],
    ["states", "--state", "xi", "--level", "2", "--hbar-beta2", "0.3", "--nu-tilde", "6"],
    ["states", "--state", "psi-plus", "--grid", "5", "--nu-tilde", "5"],
    ["states", "--state", "psi-plus", "--grid", "5", "--coupling-g", "2"],
    ["states", "--state", "xi", "--grid", "5", "--hbar", "2", "--beta2", "3"],
    ["spectrum", "--config", "{twice}"],
    ["spectrum", "--nu-tilde", "1", "--nu-tilde", "2"],
    ["states", "--state", "xi", "--grid", "3", "--grid", "4"],
    ["spectrum", "--config", "{config}", "--config", "{config}"],
]
#: the parser's own output: the top-level help and version, no command, an
#: unknown command, and the help of each command
PARSER = [
    ["--help"],
    ["--version"],
    [],
    ["no-such-command"],
    *([command, "-h"] for command in ("tunneling", "spectrum", "states", "projector-expectations",
                                       "decomp", "geometry-verify", "verify")),
]
DEFAULTS = [
    ["tunneling"],
    ["spectrum"],
    ["states", "--state", "psi-plus"],
    ["states", "--state", "psi-minus"],
    ["states", "--state", "xi"],
    ["projector-expectations"],
    ["decomp", "--s", "3", "--k", "6"],
    ["geometry-verify"],
    ["verify"],
]


def workload_commands() -> list[list[str]]:
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [w.argv(seed) for w in module.WORKLOADS.values() for seed in (0, 1)]


def export_src(rev: str, dest: pathlib.Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def side_env(src: pathlib.Path, threads: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    return env


def run_command(argv: list[str], src: pathlib.Path, threads: str) -> dict[str, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "plaquette_qgauge", *argv],
        capture_output=True, env=side_env(src, threads), timeout=600,
    )
    return {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}


def run_figures(side: pathlib.Path, threads: str) -> dict[str, bytes]:
    """Every file make_figure_data.py writes, with its exit code and streams."""
    scripts = side / "scripts"
    out = side / "figure_data"
    shutil.rmtree(out, ignore_errors=True)
    scripts.mkdir(exist_ok=True)
    shutil.copy(FIGURE_SCRIPT, scripts / FIGURE_SCRIPT.name)
    proc = subprocess.run(
        [sys.executable, str(scripts / FIGURE_SCRIPT.name)],
        capture_output=True, env=side_env(side / "src", threads), timeout=600,
    )
    result = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(out.iterdir()):
        result[path.name] = path.read_bytes()
    return result


def first_differing_lines(old: bytes, new: bytes) -> list[str]:
    """The first line at which two text parts differ, quoted from each side.

    Empty for a part that is not UTF-8 text, or whose lines agree and whose
    bytes differ only in line endings.
    """
    try:
        sides = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return []
    for number, (a, b) in enumerate(itertools.zip_longest(*sides), start=1):
        if a != b:
            return [f"    line {number} rev:  {a!r}", f"    line {number} tree: {b!r}"]
    return []


def csv_table(text: bytes) -> tuple[list[str], list[list[str]]] | None:
    """Header and rows of a command's CSV (comment line first), or None for any other part."""
    try:
        lines = text.decode().splitlines()
    except UnicodeDecodeError:
        return None
    if len(lines) < 2 or not (lines[0].startswith("# plaquette-qgauge v") and " config=" in lines[0]):
        return None
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def column_moves(old: bytes, new: bytes) -> list[str]:
    """Per column of two CSVs with one header and row count: moved cells and the worst moves."""
    tables = csv_table(old), csv_table(new)
    if None in tables or tables[0][0] != tables[1][0] or len(tables[0][1]) != len(tables[1][1]):
        return []
    (header, old_rows), (_, new_rows) = tables
    lines = []
    for index, column in enumerate(header):
        pairs = [(a[index], b[index]) for a, b in zip(old_rows, new_rows) if a[index] != b[index]]
        if not pairs:
            continue
        line = f"    column {column}: {len(pairs)} of {len(old_rows)} cells moved"
        try:
            moves = [(float(a), abs(float(b) - float(a))) for a, b in pairs]
        except ValueError:
            lines.append(line)
            continue
        worst_abs = max(move for _, move in moves)
        worst_rel = max(move / abs(a) if a else math.inf for a, move in moves)
        lines.append(f"{line}, worst {worst_abs:.3g} absolute, {worst_rel:.3g} relative")
    return lines


def differences(name: str, old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    entries = []
    for part in sorted(set(old) | set(new)):
        if old.get(part) != new.get(part):
            sizes = [len(side[part]) if part in side else "missing" for side in (old, new)]
            before, after = old.get(part, b""), new.get(part, b"")
            quoted = [*first_differing_lines(before, after), *column_moves(before, after)]
            entries.append("\n".join([f"DIFFERS  {name}: {part} ({sizes[0]} -> {sizes[1]} bytes)", *quoted]))
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="output-gate-") as tmp:
        tmp = pathlib.Path(tmp)
        sides = {"rev": tmp / "rev", "tree": tmp / "tree"}
        export_src(args.rev, sides["rev"])
        shutil.copytree(ROOT / "src", sides["tree"] / "src", ignore=shutil.ignore_patterns("__pycache__"))
        files = {"config": tmp / "sweep.cfg", "twice": tmp / "twice.cfg"}
        files["config"].write_text("n_max = 2\n")
        files["twice"].write_text("nu_tilde = 1\nnu_tilde = 2\n")
        commands = [
            *workload_commands(),
            *([part.format(**files) for part in argv] for argv in ACCEPTANCE),
            *DEFAULTS,
            *LARGE_Q,
            *Q_PER_NU_TILDE,
            *MIXED_TRUNCATION,
            *DOMAIN_EDGES,
            *GRID_EDGES,
            *BAND_EDGES,
            *CLI_EDGES,
            *WALLS,
            *([part.format(**files) for part in argv] for argv in IGNORED_OPTIONS),
            *PARSER,
        ]
        failures, compared = [], 0
        for threads in THREADS:
            for argv in commands:
                name = f"[threads={threads}] {' '.join(argv)}"
                results = {key: run_command(argv, side / "src", threads) for key, side in sides.items()}
                failures += differences(name, results["rev"], results["tree"])
                compared += 1
            results = {key: run_figures(side, threads) for key, side in sides.items()}
            failures += differences(f"[threads={threads}] make_figure_data.py", results["rev"], results["tree"])
            compared += 1
    for line in failures:
        print(line)
    print(f"{compared} results compared, {len(failures)} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
