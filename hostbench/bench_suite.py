"""Smoke tests of the host-speed benchmark.

Runs every workload with ``--quick`` (tiny inputs, two repetitions) and
checks the contract ``BENCHMARK.json`` states::

    PYTHONPATH=src python -m pytest hostbench -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUITE = os.path.join(HERE, "suite.py")
WORKLOADS = ("compute", "io", "attacks")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _suite(*argv, timeout=600):
    return subprocess.run([sys.executable, SUITE, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(workload, trace) -> (exit code, last JSON line, --out record)``,
    one quick run each, shared by the tests below."""
    tmp = tmp_path_factory.mktemp("hostbench")
    cache = {}

    def get(workload, trace):
        key = (workload, trace)
        if key not in cache:
            out = tmp / f"{workload}-{trace}.json"
            proc = _suite("run", "--workload", workload, "--quick",
                          "--trace", str(trace), "--out", str(out))
            assert proc.stdout.strip(), proc.stderr[-2000:]
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out) as handle:
                record = json.load(handle)
            cache[key] = (proc.returncode, summary, record, str(out))
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(runs, workload):
    code, summary, __, __ = runs(workload, 0)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = summary["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_op_fails(runs, workload):
    code, summary, record, __ = runs(workload, 0)
    failures = record["workloads"][workload]["failures"]
    assert code == 0, failures
    assert summary["correct"] and summary["failed"] == 0, failures
    assert summary["attempted"] >= 1
    assert record["workloads"][workload]["failed_ops"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted(runs, workload):
    code, summary, record, __ = runs(workload, 1)
    assert code == 0, record["workloads"][workload]["failures"]
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for entry in SPEC["per_layer"]:
        assert summary["metrics"][entry["name"]]["unit"] == entry["unit"]
    metrics = summary["metrics"]
    # the layers below Platform.run account for all but 5% of its time
    assert 0.95 <= metrics["trace.self_time_coverage"]["value"] <= 1.0
    assert metrics["trace.overhead"]["value"] > 0
    assert metrics["dift.events.offcpu_ratio"]["value"] > 0


def test_compare_passes_identical_records(runs):
    __, __, __, path = runs("compute", 0)
    proc = _suite("compare", path, path)
    assert proc.returncode == 0, proc.stdout
    assert "worse" not in proc.stdout


def test_compare_flags_a_25_percent_slower_vpp(runs, tmp_path):
    __, __, record, path = runs("compute", 0)
    slower = copy.deepcopy(record)
    metric = slower["workloads"]["compute"]["end_to_end"]["vpp_mips"]
    for key in ("median", "q1", "q3"):
        metric[key] *= 0.75
    metric["samples"] = [x * 0.75 for x in metric["samples"]]
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower))
    proc = _suite("compare", path, str(worse))
    assert proc.returncode == 1, proc.stdout
    rows = [line for line in proc.stdout.splitlines()
            if line.split()[:2] == ["compute", "vpp_mips"]]
    assert rows and rows[0].endswith("worse"), proc.stdout


def test_compare_flags_more_failed_ops(runs, tmp_path):
    __, __, record, path = runs("compute", 0)
    failing = copy.deepcopy(record)
    failing["workloads"]["compute"]["failed_ops"] += 1
    other = tmp_path / "failing.json"
    other.write_text(json.dumps(failing))
    assert _suite("compare", path, str(other)).returncode == 1
