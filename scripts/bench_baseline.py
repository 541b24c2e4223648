#!/usr/bin/env python3
"""Record a benchmark baseline of a git revision as ``BENCH_<short-sha>.json``.

    python scripts/bench_baseline.py [REV]

Exports REV (default ``HEAD``) with ``git archive`` into a temporary
directory and, in that export, runs the harness unchanged,

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

for every workload of ``BENCHMARK.json`` at seeds 1 to 5, the workloads
alternating within each seed, so a drift of the host's speed spreads over
all of them.  Writes ``BENCH_<short-sha>.json`` at the repository root: for
each workload, each end-to-end metric's median, quartiles and per-seed
values, whether every run was ``correct``, the ``attempted`` and ``failed``
rows summed over the runs, and the environment ``run.py`` reports (its
versions and thread pins).  Its notes name the harness's known flaws, which
the numbers carry.  Exits 1 if any run is not correct or has failed rows,
with the file written all the same; a run.py that exits non-zero stops the
script.  Run from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: fields of run.py's environment line that describe one run, not the host
PER_RUN = ("argv", "git_sha", "host", "rows", "samples", "seed", "trace", "workload")
#: five seeds give each metric's quartiles; 10 s runs take about 5 minutes in all
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 10.0
#: known flaws of perfbench/run.py, which every number in the file carries
NOTES = [
    "peak_rss_mb includes the harness: run.py reads ru_maxrss of a child that Popen "
    "started by vfork and exec, so the child's high-water mark starts at run.py's own.",
    "setup_s and wall_s include bytecode compilation: under PYTHONDONTWRITEBYTECODE=1 "
    "src/ has no __pycache__, so every child compiles the package.",
    "The tracer imports scipy.linalg before the clock starts and wraps "
    "scipy.linalg.eigh_tridiagonal, which the package never calls.",
    "perfbench/README.md and BENCHMARK.json quote stale call counts (16,361 eigensolves, "
    "72,000 norm_squared, 60,000 theta3_prime, 1,800 bracket and 9,000 "
    "symmetric_projection calls); cli.fmt and cli.csv_text count blocks, not cells.",
    "The tracer calls float() on norm_squared's argument, so an array of t cannot be traced.",
]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def export_tree(rev: str, dest: pathlib.Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: pathlib.Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The result and environment lines of one run.py run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("# environment "):
        raise RuntimeError(f"run.py {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("# environment "))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to measure")
    args = parser.parse_args()

    sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    short = git("rev-parse", "--short=7", sha)
    with tempfile.TemporaryDirectory(prefix="bench-baseline-") as tmp:
        tree = pathlib.Path(tmp)
        export_tree(sha, tree)
        spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [entry["name"] for entry in spec["workloads"]]
        runs: dict[str, list[dict]] = {name: [] for name in workloads}
        environment = None
        for seed in SEEDS:
            for name in workloads:
                result, env = run_once(tree, name, seed)
                runs[name].append(result)
                environment = environment or {k: v for k, v in env.items() if k not in PER_RUN}
                print(f"{name} seed {seed}: correct={result['correct']} "
                      f"wall_s={result['metrics']['wall_s']['value']:.3f}", file=sys.stderr)

    report = {
        "revision": sha,
        "command": f"perfbench/run.py --workload W --seed S --seconds {SECONDS:g} --trace 0",
        "seeds": list(SEEDS),
        "environment": environment,
        "workloads": {
            name: {
                "runs": len(results),
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    metric: {"unit": entry["unit"],
                             **summary([r["metrics"][metric]["value"] for r in results])}
                    for metric, entry in results[0]["metrics"].items()
                },
            }
            for name, results in runs.items()
        },
        "notes": NOTES,
    }
    out = ROOT / f"BENCH_{short}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(out.name)
    return 0 if all(w["correct"] and not w["failed"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
