"""Sweep benchmark for the plaquette_qgauge command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every CLI run is a fresh
``python3 -m plaquette_qgauge ...`` process with PYTHONPATH=src and the
BLAS/OpenMP pools pinned to one thread (the program is single-threaded
Python on small matrices; larger pools only add start-up cost and noise).

--trace 0 measures the end-to-end metrics.  After one untimed import (which
also compiles the bytecode), each round runs the workload and an import-only
run, each followed by a speed probe, for S seconds.  The first run's output
is what the oracle checks; every later output must be byte-identical to it.
Times are medians over the rounds, each measured against its neighbouring
probes (see PROBE); the raw probe times are in the environment line.

--trace 1 measures the per-layer metrics.  For S seconds it alternates an
untraced and a traced in-process ``cli.main(argv)`` child (perfbench/child.py)
and reports call counts, median self times and the tracing overhead.

The last line of stdout is the JSON result; the line before it records the
run environment.  ``attempted`` and ``failed`` count the rows of the first
output that the oracle checked and the rows outside its tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

THREAD_PIN = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# pin this process too, before numpy is imported, so the oracle does not
# compete with the next child for cores
os.environ.update(THREAD_PIN)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import EIGENSOLVE_KEY, read_spans  # noqa: E402
from workloads import WORKLOADS, expectation_errors  # noqa: E402

MIN_REPS = 5
#: The host's speed drifts (other tenants: up to 40% between runs minutes
#: apart on a shared 2-core VM, and bursts within a run), and the drift moves
#: every process alike.  So a probe that does not touch the package runs
#: before and after every timed child; each child's time is divided by the
#: mean of its two probes, and the median ratio is reported in seconds at the
#: speed where the probe takes PROBE_REFERENCE_S (about its time on that VM
#: when quiet).
PROBE = [sys.executable, "-c", "import numpy, scipy.linalg"]
PROBE_REFERENCE_S = 0.45
#: a child that runs longer than this is killed; its run counts as failed
CHILD_TIMEOUT_S = 40.0
#: the minimum rep count is not enforced past this, so a slow program still
#: lets the benchmark finish within its 180 s limit
LOOP_LIMIT_S = 100.0
PACKAGE_MARKER = os.path.join("src", "plaquette_qgauge", "cli.py")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: str, env) -> tuple[float, int, float]:
    """Run one child; return (wall seconds, exit code, max RSS in MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def another_rep(done: int, minimum: int, start: float, seconds: float) -> bool:
    """True until ``minimum`` reps ran and another rep of average length would overrun."""
    now = time.perf_counter()
    if done < minimum:
        return done == 0 or now - start < LOOP_LIMIT_S
    return now + (now - start) / done <= start + seconds


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def environment(args) -> dict:
    import numpy
    import scipy

    # GIT_CEILING_DIRECTORIES keeps git from reporting an enclosing repository
    ceiling = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=ceiling
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown",
        "thread_pin": THREAD_PIN,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


def measure_end_to_end(workload, argv, args, tmp, env):
    cli = [sys.executable, "-m", "plaquette_qgauge", *argv]
    setup = [sys.executable, "-c", "import plaquette_qgauge.cli"]
    reference_path = os.path.join(tmp, "reference.out")
    run_path = os.path.join(tmp, "run.out")
    discard = os.path.join(tmp, "discard.out")
    spawn(setup, discard, env)

    # times alternate workload, import-only; probes[i] and probes[i + 1]
    # run just before and just after times[i]
    times, probes, rss, errors = [], [spawn(PROBE, discard, env)[0]], [], []
    reference = code = None
    start = time.perf_counter()
    while another_rep(len(rss), MIN_REPS, start, args.seconds):
        wall, rep_code, peak = spawn(cli, run_path if rss else reference_path, env)
        probes.append(spawn(PROBE, discard, env)[0])
        setup_wall, setup_code, _ = spawn(setup, discard, env)
        probes.append(spawn(PROBE, discard, env)[0])
        times += [wall, setup_wall]
        rss.append(peak)
        if reference is None:
            reference, code = read_bytes(reference_path), rep_code
        elif rep_code != code or read_bytes(run_path) != reference:
            errors.append(f"timed run {len(rss)} differs from the first run")
        if setup_code != 0:
            errors.append("import-only run failed")

    units = [t / ((probes[i] + probes[i + 1]) / 2.0) for i, t in enumerate(times)]
    verdict = workload.check(reference.decode("utf-8"), code, argv, args.seed)
    wall_s = statistics.median(units[0::2]) * PROBE_REFERENCE_S
    metrics = {
        "setup_s": (statistics.median(units[1::2]) * PROBE_REFERENCE_S, "s"),
        "wall_s": (wall_s, "s"),
        "rows_per_s": (verdict.rows / wall_s, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": times[0::2], "setup_s": times[1::2], "probe_s": probes, "peak_rss_mb": rss}
    return verdict, errors + verdict.errors, metrics, samples


def layer_totals(path: str):
    """Per-key call count, self time, inclusive time and argument notes of one span file."""
    keys, spans = read_spans(path)
    key_of = {span[0]: span[2] for span in spans}
    calls = dict.fromkeys(keys, 0)
    self_ns = dict.fromkeys(keys, 0)
    total_ns = dict.fromkeys(keys, 0)
    notes: dict[str, list[str]] = {}
    for span_id, parent, key, start, end, note in spans:
        duration = end - start
        calls[key] += 1
        self_ns[key] += duration
        total_ns[key] += duration
        if parent:
            self_ns[key_of[parent]] -= duration
        if note:
            notes.setdefault(key, []).append(note)
    # recursion would double-count inclusive time; no traced function recurses
    return keys, calls, self_ns, total_ns, notes


def layer_metrics(keys, calls, self_s, total_s, notes, overhead):
    metrics = {}
    for key in keys:
        metrics[f"{key}.calls"] = (calls[key], "count")
        metrics[f"{key}.self_s"] = (self_s[key], "s")
        metrics[f"{key}.s"] = (total_s[key], "s")
    norm_key = "costratified.norm_squared"
    if norm_key in keys:
        distinct_t = len(set(notes.get(norm_key, [])))
        metrics[f"{norm_key}.calls_per_t"] = (calls[norm_key] / max(distinct_t, 1), "calls/t")
    solves = notes.get(EIGENSOLVE_KEY, [])
    distinct_q = len({note.split(":")[1] for note in solves})
    metrics["mathieu.eigensolves"] = (calls.get(EIGENSOLVE_KEY, 0), "count")
    metrics["mathieu.eigensolve_s"] = (total_s.get(EIGENSOLVE_KEY, 0.0), "s")
    metrics["mathieu.eigensolve_rows"] = (sum(int(n.split(":")[0]) for n in solves), "count")
    metrics["mathieu.eigensolves_per_q"] = (len(solves) / max(distinct_q, 1), "calls/q")
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


def measure_layers(workload, argv, args, tmp, env):
    child = [sys.executable, os.path.join(HERE, "child.py")]
    timing_path = os.path.join(tmp, "timing.json")
    spans_path = os.path.join(tmp, "spans.tsv")
    reference_path = os.path.join(tmp, "reference.out")
    run_path = os.path.join(tmp, "run.out")

    plain, traced, runs, errors = [], [], [], []
    reference = code = None
    start = time.perf_counter()
    while another_rep(len(runs), 1, start, args.seconds):
        for spans in ("-", spans_path):
            out_path = run_path if reference is not None else reference_path
            if os.path.exists(timing_path):
                os.remove(timing_path)
            _, child_code, _ = spawn([*child, timing_path, spans, "--", *argv], out_path, env)
            if not os.path.exists(timing_path):
                raise SystemExit(f"perfbench: traced child died with exit code {child_code}")
            with open(timing_path, encoding="utf-8") as handle:
                timing = json.load(handle)
            if reference is None:
                reference, code = read_bytes(reference_path), timing["exit_code"]
            elif timing["exit_code"] != code or read_bytes(run_path) != reference:
                errors.append("a traced or untraced run differs from the first run")
            (plain if spans == "-" else traced).append(timing["main_s"])
        runs.append(layer_totals(spans_path))

    keys, calls, _, _, notes = runs[0]
    if any(run[1] != calls for run in runs):
        errors.append("traced call counts differ between runs of the same seed")
    self_s = {k: statistics.median(run[2][k] for run in runs) / 1e9 for k in keys}
    total_s = {k: statistics.median(run[3][k] for run in runs) / 1e9 for k in keys}
    overhead = statistics.median(traced) - statistics.median(plain)
    errors += expectation_errors(workload.name, keys, calls)
    verdict = workload.check(reference.decode("utf-8"), code, argv, args.seed)
    metrics = layer_metrics(keys, calls, self_s, total_s, notes, overhead)
    return verdict, errors + verdict.errors, metrics, {"pairs": len(runs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(PACKAGE_MARKER) or not os.path.isfile("BENCHMARK.json"):
        print(f"error: run from the repository root ({PACKAGE_MARKER} not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    argv = workload.argv(args.seed)
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as tmp:
        measure = measure_layers if args.trace else measure_end_to_end
        verdict, errors, measured, samples = measure(workload, argv, args, tmp, env)

    metrics = {}
    for entry in wanted:
        if entry["name"] not in measured:
            errors.append(f"metric {entry['name']} was not measured")
        value, unit = measured.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            errors.append(f"metric {entry['name']} measured in {unit}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for error in errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    if len(errors) > 20:
        print(f"perfbench: ... {len(errors) - 20} more errors", file=sys.stderr)

    info = environment(args)
    info.update(argv=argv, rows=verdict.rows, samples=samples)
    print("# environment " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": max(verdict.checked, 1),
        "failed": verdict.failed if verdict.checked else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
