"""Smoke test: one short pass of every workload through the benchmark.

    python3 -m pytest -q perfbench/tests/smoke.py

The file name keeps it out of a plain `pytest` run of the repository;
it takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check(proc, metrics):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    return lines[:-1], result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = check(run(workload, 0), SPEC["end_to_end"])
    printed = {line.split()[0]: line.split()[1:] for line in lines
               if line.startswith("   ") and line.split()}
    for m in SPEC["end_to_end"]:
        # printed by name, value, unit
        assert printed[m["name"]][1] == m["unit"], m["name"]
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert float(printed["fail_ratio"][0]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    check(run(workload, 1), SPEC["per_layer"])


def test_refuses_without_sources():
    out = os.path.join(BENCH, "out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
