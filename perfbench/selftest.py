"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that

* BENCHMARK.json lists exactly the workloads defined in workloads.py and
  has ``setup_s`` among its end-to-end metrics;
* the traced call counts match the workload design (EXPECTED_CALLS): each
  wrapped function is reached on the workloads that use it and makes 0
  calls where the design says 0, and a renamed function is reported rather
  than read as 0;
* traced counts repeat exactly between two runs of the same seed;
* the harness refuses to run, printing no result, in a directory holding
  only BENCHMARK.json and perfbench/.

It takes about a minute on two cores.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import EXPECTED_CALLS, WORKLOADS, expectation_errors  # noqa: E402

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(workload: str, seed: int, trace: int, cwd: str = ".") -> tuple[int, str]:
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_spec(failures: list[str]) -> None:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} differ from {list(WORKLOADS)}")
    if EXPECTED_CALLS.keys() != WORKLOADS.keys():
        failures.append("EXPECTED_CALLS does not cover every workload")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        failures.append("setup_s is not an end-to-end metric")


def check_checker(failures: list[str]) -> None:
    keys = ["costratified.norm_squared", "theta.theta3_prime"]
    errors = expectation_errors("tunneling-sweep", keys, {"costratified.norm_squared": 5})
    if not any("theta.theta3_prime made 0 calls" in e for e in errors):
        failures.append("a function that stopped being called was not reported")
    if not any("tunneling_overlap is no longer a wrapped function" in e for e in errors):
        failures.append("a renamed function was not reported")


def check_traced_runs(failures: list[str]) -> None:
    for name in WORKLOADS:
        results = []
        for _ in range(2):
            code, stdout = run(name, seed=1, trace=1)
            if code != 0:
                failures.append(f"{name}: traced run exited {code}")
                break
            results.append(result_of(stdout))
        if len(results) < 2:
            continue
        if not all(r["correct"] for r in results):
            failures.append(f"{name}: traced run not correct (see its stderr)")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
            for r in results
        ]
        if counts[0] != counts[1]:
            failures.append(f"{name}: traced counts differ between two runs of seed 1")
        shown = {k: v for k, v in counts[0].items() if v}
        print(f"{name}: {json.dumps(shown, sort_keys=True)}")


def check_bare_directory(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=".") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run("selfcheck", seed=1, trace=0, cwd=bare)
    if code == 0 or stdout.strip():
        failures.append(f"bare directory: exit {code}, stdout {stdout.strip()[:80]!r}")


def main() -> int:
    failures: list[str] = []
    check_spec(failures)
    check_checker(failures)
    check_bare_directory(failures)
    check_traced_runs(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
