#!/usr/bin/env python3
"""Compare the command-line output of the working tree with that of a git revision.

    python scripts/output_gate.py REV

Exports REV's ``src/`` with ``git archive`` into a temporary directory and
runs one fixed list of commands against that export and against the
working tree's ``src/``: the four benchmark workloads at seeds 0 and 1 (their
arguments from ``perfbench/workloads.py``), the determinism configs of
``tests/test_acceptance.py``, every command at its defaults, three
commands that solve past 128 rows (scipy's side of the dense bound), and
``scripts/make_figure_data.py`` (the working tree's script on both sides,
so only ``src/`` differs).  Each runs as a fresh ``python -m
plaquette_qgauge`` process under ``OPENBLAS_NUM_THREADS=1`` and ``=2``.  A
command's result is its exit code, stdout and stderr; a figure-data run's
is every file it writes.

Prints each result that differs between the two sides, and exits 1 if any
does, else 0.  For a text part (exit code, stdout, stderr, a CSV or SVG
file) it also quotes the first differing line of each side, ``None`` where
that side has no such line.  Run from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import itertools
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
#: commands whose eigensolves go past ``mathieu._DENSE_MAX``: scipy's partial
#: solve in blocks of 16 levels, the first block alone, and full solves past
#: 128 rows from the completeness doubling
LARGE_Q = [
    ["spectrum", "--nu-tilde", "1e4:1e8:40:log", "--n-max", "40"],
    ["states", "--state", "xi", "--level", "3", "--nu-tilde", "1e8"],
    ["projector-expectations", "--hbar-beta2", "2", "--nu-tilde", "3000,10000"],
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


def differences(name: str, old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    entries = []
    for part in sorted(set(old) | set(new)):
        if old.get(part) != new.get(part):
            sizes = [len(side[part]) if part in side else "missing" for side in (old, new)]
            quoted = first_differing_lines(old.get(part, b""), new.get(part, b""))
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
        config = tmp / "sweep.cfg"
        config.write_text("n_max = 2\n")
        commands = [
            *workload_commands(),
            *([part.format(config=config) for part in argv] for argv in ACCEPTANCE),
            *DEFAULTS,
            *LARGE_Q,
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
