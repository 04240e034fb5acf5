"""Smoke test of the end-to-end benchmark: every workload at 1% scale.

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py

Outside the tier-1 suite (``testpaths`` is ``tests/``).  For each
workload it runs the benchmark once untraced and twice traced, and
checks that outputs are correct, that the emitted workload and metric
names and units are BENCHMARK.json's, and that count metrics repeat
exactly across two invocations with the same seed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
ARGS = ["--seed", "3", "--seconds", "0.2", "--scale", "0.01"]
COUNT_UNITS = ("count", "steps")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _units(group):
    return {metric["name"]: metric["unit"] for metric in SPEC[group]}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, *ARGS,
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    assert all(line.split()[0] == workload for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_workload_names_match_benchmark_json():
    sys.path.insert(0, HERE)
    try:
        import run
    finally:
        sys.path.remove(HERE)
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    plain = _run(workload, 0)
    assert {name: entry["unit"] for name, entry
            in plain["metrics"].items()} == _units("end_to_end")
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())

    first, second = _run(workload, 1), _run(workload, 1)
    assert {name: entry["unit"] for name, entry
            in first["metrics"].items()} == _units("per_layer")
    counts = {name for name, unit in _units("per_layer").items()
              if unit in COUNT_UNITS}
    assert {name: first["metrics"][name]["value"] for name in counts} \
        == {name: second["metrics"][name]["value"] for name in counts}
