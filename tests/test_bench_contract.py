"""The benchmark's call contract holds on small versions of its four workloads.

``EXPECTED_CALLS`` in perfbench/workloads.py names, for each workload, the
package functions a run must reach and those it must bypass; a rename or a
rerouted call breaks it.  Each test runs perfbench/child.py with the tracer
on a small grid of the workload's command and checks the traced calls
against it, so the suite catches that without the minute-long
perfbench/selftest.py.  Nothing in perfbench/ is modified.
"""

import collections
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

#: each workload's command on a small grid
SMALL_ARGV = {
    "tunneling-sweep": ["tunneling", "--hbar-beta2", "0.01:5:200:log"],
    "spectrum-sweep": ["spectrum", "--nu-tilde", "0:200:20", "--n-max", "40"],
    "projector-grid": [
        "projector-expectations",
        "--hbar-beta2",
        "0.03125,0.125,0.5",
        "--nu-tilde",
        "0.1:100:5:log",
    ],
    "selfcheck": ["verify"],
}


def test_every_workload_is_covered():
    assert set(SMALL_ARGV) == set(workloads.WORKLOADS) == set(workloads.EXPECTED_CALLS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGV))
def test_traced_calls_meet_the_contract(name, tmp_path):
    argv = SMALL_ARGV[name]
    assert argv[0] == workloads.WORKLOADS[name].argv(0)[0]
    timing, spans = tmp_path / "timing.json", tmp_path / "spans.tsv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), str(timing), str(spans), "--", *argv],
        env=env, stdout=subprocess.DEVNULL, check=True, timeout=120,
    )
    assert json.loads(timing.read_text())["exit_code"] == 0
    keys, records = tracer.read_spans(str(spans))
    calls = collections.Counter(record[2] for record in records)
    assert workloads.expectation_errors(name, keys, calls) == []
