"""Smoke test of the benchmark harness at a tiny scale.

    PYTHONPATH=src python -m pytest bench -q

Runs ``bench/run.py`` end to end (child processes included) with one
timed round per workload plus the traced pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from compare import judge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Drops one finding from every sharded detection run, in every process
#: that imports it (``sitecustomize`` loads at interpreter start).
FAULT = """
from repro.core.stale import StaleFindings
from repro.parallel import ParallelMeasurementPipeline

_run = ParallelMeasurementPipeline.run


def run(self):
    result = _run(self)
    findings = StaleFindings()
    findings.extend(list(result.findings.all_findings())[1:])
    result.findings = findings
    return result


ParallelMeasurementPipeline.run = run
"""


def bench(tmp_path, *args, env=None):
    """Run the benchmark; ``(exit code, records, last stdout line)``."""
    out = tmp_path / f"runs-{len(list(tmp_path.iterdir()))}.jsonl"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.02",
         "--seconds", "0", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900, env=env,
    )
    records = []
    if out.exists():
        records = [json.loads(line) for line in out.read_text().splitlines()]
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, records, json.loads(lines[-1]) if lines else None


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("traced"), "--seed", "7", "--trace", "1")


def test_every_declared_metric_is_emitted_with_its_unit(traced):
    code, records, last = traced
    assert code == 0
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    for record in records:
        for metric in SPEC["end_to_end"]:
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert record["metrics"][metric["name"]]["value"] > 0
        for metric in SPEC["per_layer"]:
            assert record["per_layer"][metric["name"]]["unit"] == metric["unit"]
        assert record["per_layer"]["obs.trace_dropped"]["value"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_no_operation_fails(traced):
    _, records, last = traced
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert all(r["failed"] == 0 and r["attempted"] > 0 for r in records)


def test_same_seed_same_outputs_other_seed_other_findings(traced, tmp_path):
    _, records, _ = traced
    first = records[0]
    code, (again,), _ = bench(tmp_path, "--seed", "7", "--trace", "1",
                              "--workload", first["workload"])
    assert code == 0
    assert again["findings_digest"] == first["findings_digest"]
    assert again["bundle_digest"] == first["bundle_digest"]
    counts = {n: m for n, m in first["per_layer"].items() if m["unit"] == "count"}
    assert counts == {n: m for n, m in again["per_layer"].items() if m["unit"] == "count"}

    code, (other,), last = bench(tmp_path, "--seed", "8", "--workload", first["workload"])
    assert code == 0
    assert other["findings_digest"] != first["findings_digest"]
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_wrong_finding_is_counted_and_fails_the_run(tmp_path):
    fault_dir = tmp_path / "fault"
    fault_dir.mkdir()
    (fault_dir / "sitecustomize.py").write_text(FAULT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), str(fault_dir)]))
    code, (record,), last = bench(tmp_path, "--workload", "detect-cold", env=env)
    assert code == 1
    assert record["failed"] > 0
    assert last["correct"] is False and last["failed"] == record["failed"]


def test_compare_labels():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.5]
    assert judge(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"
    assert judge(parent, [v * 1.01 for v in parent], "lower", 0.1)[0] == "unchanged"
    assert judge(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "regressed"
    assert judge(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "improved"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert judge(noisy, [v * 1.2 for v in noisy], "lower", 0.1)[0] == "unresolved"
