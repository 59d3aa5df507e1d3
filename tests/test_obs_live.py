"""Live telemetry: progress gauges, the heartbeat, crash durability.

Covers the tentpole acceptance bar: snapshots are monotone per phase,
the final snapshot's samples equal the end-of-run metrics textfile, a
SIGKILLed run leaves a parseable timeline, and ``watch --resume`` ties
the fresh timeline back to the checkpoint with a ``resumed_from``
marker.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.obs import (
    Heartbeat,
    get_heartbeat,
    names,
    parse_text,
    phase_progress,
    read_rss_bytes,
    set_heartbeat,
    span,
    use_heartbeat,
    use_registry,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import read_timeline, snapshots, timeline_meta


class TestPhaseProgress:
    def test_add_accumulates_and_set_done_is_high_water(self):
        registry = MetricsRegistry()
        progress = phase_progress("detect_shards", registry)
        progress.set_total(10)
        progress.add(3)
        progress.add(2)
        assert progress.done == 5.0
        progress.set_done(4)  # never backwards
        assert progress.done == 5.0
        progress.set_done(8)
        assert progress.done == 8.0
        assert progress.total == 10.0

    def test_undeclared_phase_rejected(self):
        with pytest.raises(ValueError, match="undeclared progress phase"):
            phase_progress("warp_drive", MetricsRegistry())

    def test_declared_phases_all_constructible(self):
        registry = MetricsRegistry()
        for phase in names.PROGRESS_PHASES:
            phase_progress(phase, registry).add(0)

    def test_rss_readable_on_this_platform(self):
        rss = read_rss_bytes()
        assert rss is not None and rss > 1 << 20  # a Python process > 1 MiB


class TestHeartbeat:
    def test_snapshots_monotone_and_final_matches_textfile(self, tmp_path):
        registry = MetricsRegistry()
        path = tmp_path / "timeline.jsonl"
        heartbeat = Heartbeat(registry, str(path), interval=0.05, command="test")
        progress = phase_progress("detect_shards", registry)
        progress.set_total(4)
        with heartbeat:
            for _ in range(4):
                progress.add(1)
                time.sleep(0.08)
        records = read_timeline(str(path))
        assert timeline_meta(records)["command"] == "test"
        snaps = snapshots(records)
        assert len(snaps) >= 3
        done = [s["phases"]["detect_shards"]["done"] for s in snaps]
        assert done == sorted(done)
        assert snaps[-1]["final"] is True
        assert snaps[-1]["phases"]["detect_shards"]["done"] == 4.0
        # The acceptance bar: final snapshot == what the textfile will say.
        assert snaps[-1]["samples"] == parse_text(registry.render_text())

    def test_snapshot_counter_and_rss_gauge_in_samples(self, tmp_path):
        registry = MetricsRegistry()
        heartbeat = Heartbeat(
            registry, str(tmp_path / "t.jsonl"), interval=5.0
        )
        heartbeat.start()
        heartbeat.stop()
        snaps = snapshots(read_timeline(str(tmp_path / "t.jsonl")))
        assert len(snaps) == 1  # just the final one; interval never elapsed
        samples = snaps[0]["samples"]
        assert samples[names.HEARTBEAT_SNAPSHOTS] == 1.0
        assert samples.get(names.PROCESS_RSS_BYTES, 0.0) > 0.0

    def test_open_spans_captured(self, tmp_path):
        registry = MetricsRegistry()
        heartbeat = Heartbeat(registry, str(tmp_path / "t.jsonl"), interval=5.0)
        heartbeat.start()
        with span("outer"):
            with span("inner"):
                record = heartbeat.sample()
        heartbeat.stop()
        open_names = [s["name"] for s in record["open_spans"]]
        assert open_names == ["outer", "inner"]

    def test_marker_records(self, tmp_path):
        registry = MetricsRegistry()
        heartbeat = Heartbeat(registry, str(tmp_path / "t.jsonl"), interval=5.0)
        heartbeat.start()
        heartbeat.mark(resumed_from=1234)
        heartbeat.stop()
        records = read_timeline(str(tmp_path / "t.jsonl"))
        markers = [r for r in records if r.get("kind") == "marker"]
        assert markers and markers[0]["resumed_from"] == 1234

    def test_use_heartbeat_installs_and_clears(self, tmp_path):
        registry = MetricsRegistry()
        heartbeat = Heartbeat(registry, str(tmp_path / "t.jsonl"), interval=5.0)
        assert get_heartbeat() is None
        with use_heartbeat(heartbeat) as active:
            assert get_heartbeat() is active
        assert get_heartbeat() is None

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            Heartbeat(MetricsRegistry(), str(tmp_path / "t.jsonl"), interval=0)

    def test_stop_idempotent(self, tmp_path):
        heartbeat = Heartbeat(
            MetricsRegistry(), str(tmp_path / "t.jsonl"), interval=5.0
        )
        heartbeat.start()
        heartbeat.stop()
        heartbeat.stop()  # no-op, no error
        assert len(snapshots(read_timeline(str(tmp_path / "t.jsonl")))) == 1


class TestCliLifecycle:
    def test_detect_heartbeat_timeline_matches_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        code = main([
            "detect", "--scale", "0.02", "--seed", "7",
            "--heartbeat", "0.05", "--metrics-out", str(metrics),
        ])
        capsys.readouterr()
        assert code == 0
        records = read_timeline(str(tmp_path))
        snaps = snapshots(records)
        assert snaps and snaps[-1]["final"] is True
        with open(metrics, "r", encoding="utf-8") as handle:
            assert snaps[-1]["samples"] == parse_text(handle.read())
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["timeline_path"] == "timeline.jsonl"
        assert manifest["timeline_snapshots"] == len(snaps)
        assert manifest["heartbeat_seconds"] == 0.05
        assert get_heartbeat() is None  # cleared after the run

    def test_heartbeat_off_writes_no_timeline(self, tmp_path, capsys):
        code = main([
            "detect", "--scale", "0.02", "--seed", "7",
            "--metrics-out", str(tmp_path / "m.prom"),
        ])
        capsys.readouterr()
        assert code == 0
        assert not (tmp_path / "timeline.jsonl").exists()
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["timeline_path"] is None

    def test_watch_resume_marks_fresh_timeline(self, tmp_path, capsys):
        checkpoints = tmp_path / "ckpt"
        first = tmp_path / "first"
        second = tmp_path / "second"
        args = ["watch", "--scale", "0.02", "--seed", "7",
                "--checkpoint-dir", str(checkpoints), "--heartbeat", "0.05"]
        code = main(args + [
            "--days", "400", "--metrics-out", str(first / "m.prom"),
        ])
        capsys.readouterr()
        assert code == 0
        first_snaps = snapshots(read_timeline(str(first)))
        assert first_snaps[-1]["final"] is True

        code = main(args + [
            "--resume", "--metrics-out", str(second / "m.prom"),
        ])
        capsys.readouterr()
        assert code == 0
        records = read_timeline(str(second))
        markers = [r for r in records if r.get("kind") == "marker"]
        assert any("resumed_from" in m for m in markers), markers
        resumed_from = next(m["resumed_from"] for m in markers
                            if "resumed_from" in m)
        # The fresh timeline's stream cursor starts at (not before) the
        # checkpointed position: the skipped prefix counts as done.
        snaps = snapshots(records)
        days = [
            s["phases"]["stream_days"]["done"]
            for s in snaps
            if "stream_days" in s["phases"]
        ]
        assert days == sorted(days)
        assert resumed_from > 0
        assert snaps[-1]["final"] is True

    def test_sigkill_leaves_parseable_timeline(self, tmp_path):
        """kill -9 mid-run: the timeline reads back up to the last beat."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        timeline = tmp_path / "timeline.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "detect", "--scale", "0.1",
             "--heartbeat", "0.05", "--metrics-out", str(tmp_path / "m.prom")],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if timeline.exists() and timeline.stat().st_size > 500:
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.02)
            if process.poll() is None:
                os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        records = read_timeline(str(timeline))  # must not raise
        assert timeline_meta(records).get("command") == "detect"
        for phase_rows in (
            snap["phases"] for snap in snapshots(records)
        ):
            for row in phase_rows.values():
                assert row["done"] >= 0.0


class TestRunmetaPaths:
    def test_all_artifact_paths_relative_in_manifest(self, tmp_path):
        from repro.obs.runmeta import build_run_manifest, write_run_manifest

        run_dir = tmp_path / "artifacts"
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        manifest_path = run_dir / "run.json"
        write_run_manifest(
            str(manifest_path),
            build_run_manifest(
                command="detect",
                argv=["detect"],
                seed=7,
                scale=0.02,
                workers=1,
                wall_seconds=1.0,
                exit_status="ok",
                exit_code=0,
                metrics_path=str(run_dir / "m.prom"),
                trace_path=str(elsewhere / "trace.json"),
                timeline_path=str(run_dir / "timeline.jsonl"),
                timeline_snapshots=3,
                heartbeat_seconds=0.5,
            ),
        )
        document = json.loads(manifest_path.read_text())
        assert document["metrics_path"] == "m.prom"
        assert document["timeline_path"] == "timeline.jsonl"
        assert document["trace_path"] == os.path.join("..", "elsewhere", "trace.json")
        # Round trip: joining the manifest dir with each relative path
        # lands on the original absolute location.
        for key, original in (
            ("metrics_path", run_dir / "m.prom"),
            ("timeline_path", run_dir / "timeline.jsonl"),
            ("trace_path", elsewhere / "trace.json"),
        ):
            joined = os.path.normpath(os.path.join(str(run_dir), document[key]))
            assert joined == str(original)

    def test_absent_paths_stay_none(self, tmp_path):
        from repro.obs.runmeta import build_run_manifest, write_run_manifest

        manifest_path = tmp_path / "run.json"
        write_run_manifest(
            str(manifest_path),
            build_run_manifest(
                command="detect",
                argv=["detect"],
                seed=7,
                scale=0.02,
                workers=None,
                wall_seconds=1.0,
                exit_status="ok",
                exit_code=0,
                metrics_path=str(tmp_path / "m.prom"),
            ),
        )
        document = json.loads(manifest_path.read_text())
        assert document["trace_path"] is None
        assert document["timeline_path"] is None
        assert document["timeline_snapshots"] is None
