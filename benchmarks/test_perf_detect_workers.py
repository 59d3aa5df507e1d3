"""Performance benchmark — ``detect --workers 2`` against ``--workers 1``.

Not a paper experiment: the gate on the parallel engine. Saves
seed-20231024 streamgen bundles (``save --gen-shards 1``) at scales 1
and 4, then runs ``detect --bundle B --workers 1|2 --format json``
through the CLI, each in a fresh process, alternating which worker count
runs first. It records each run's wall time and the ``run.json`` peak
RSS of the parent and of its largest child, asserts that both worker
counts print the same JSON (``shard_stats`` aside), and writes
``benchmarks/reports/perf_detect_workers.txt``.

On a host with at least 2 cores, ``--workers 2`` must be at least 1.3x
faster than ``--workers 1`` at scale 4 (median of the runs), with a peak
RSS (the larger of parent and child) no higher. On one core there is
nothing to run in parallel, so the report says "not gated" instead.

    PYTHONPATH=src python -m pytest benchmarks/test_perf_detect_workers.py -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from repro.analysis.report import render_table

_SEED = 20231024
_SCALES = (1.0, 4.0)
#: Runs per (scale, worker count); the order alternates between runs.
_RUNS = 3
_GATED_SCALE = 4.0
_MIN_SPEEDUP = 1.3

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _cli(args, out_dir=None):
    env = dict(os.environ, PYTHONPATH=_SRC)
    command = [sys.executable, "-m", "repro", *args]
    if out_dir is not None:
        command += ["--metrics-out", os.path.join(out_dir, "metrics.prom")]
    started = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, elapsed


def _detect(bundle_dir: str, workers: int, out_dir: str):
    """``(document without shard_stats, wall s, parent MiB, child MiB)``."""
    stdout, elapsed = _cli(
        ["detect", "--bundle", bundle_dir, "--workers", str(workers),
         "--format", "json"],
        out_dir,
    )
    document = json.loads(stdout)
    document.pop("shard_stats")
    with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    parent = manifest["peak_rss_bytes"] / 2**20
    child = (manifest["peak_rss_children_bytes"] or 0) / 2**20
    return document, elapsed, parent, child


def test_perf_detect_workers(tmp_path, emit_report):
    cores = os.cpu_count() or 1
    rows = []
    gate = {}
    for scale in _SCALES:
        bundle_dir = str(tmp_path / f"bundle-{scale:g}")
        _cli(["save", "--seed", str(_SEED), "--scale", str(scale),
              "--gen-shards", "1", "--dir", bundle_dir])
        runs = {1: [], 2: []}
        first = None
        for index in range(_RUNS):
            for workers in (1, 2) if index % 2 == 0 else (2, 1):
                out_dir = str(tmp_path / f"run-{scale:g}-{workers}-{index}")
                document, *measured = _detect(bundle_dir, workers, out_dir)
                first = document if first is None else first
                assert document == first, f"scale {scale:g}: outputs differ"
                runs[workers].append(measured)
        medians = {
            workers: statistics.median(wall for wall, _, _ in measured)
            for workers, measured in runs.items()
        }
        peaks = {
            workers: max(max(parent, child) for _, parent, child in measured)
            for workers, measured in runs.items()
        }
        for workers, measured in runs.items():
            walls = ", ".join(f"{wall:.2f}" for wall, _, _ in measured)
            rows.append((
                f"{scale:g}x",
                workers,
                walls,
                f"{medians[workers]:.2f}",
                f"{max(parent for _, parent, _ in measured):.0f}",
                f"{max(child for _, _, child in measured):.0f}",
                f"{medians[1] / medians[workers]:.2f}x",
            ))
        if scale == _GATED_SCALE:
            gate = {"speedup": medians[1] / medians[2], "peaks": peaks}

    if cores >= 2:
        verdict = (
            f"gated on {cores} cores: scale {_GATED_SCALE:g} speedup "
            f"{gate['speedup']:.2f}x (needs >= {_MIN_SPEEDUP}x), peak RSS "
            f"{gate['peaks'][2]:.0f} MiB with 2 workers vs "
            f"{gate['peaks'][1]:.0f} MiB with 1"
        )
    else:
        verdict = f"not gated: {cores} cores"
    emit_report(
        "perf_detect_workers",
        render_table(
            ["Scale", "Workers", "Wall s (runs)", "Median s",
             "Parent RSS MiB", "Child RSS MiB", "Speedup"],
            rows,
            title=(
                f"detect --workers 1 vs 2 (seed {_SEED}, save --gen-shards 1, "
                f"fresh process per run, os.cpu_count() = {cores}); {verdict}"
            ),
        ),
    )
    if cores >= 2:
        assert gate["speedup"] >= _MIN_SPEEDUP, verdict
        assert gate["peaks"][2] <= gate["peaks"][1], verdict
