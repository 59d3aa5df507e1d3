"""Timeline data plane: writer durability, reader tolerance, summaries,
and the ``repro obs-timeline`` command over a committed fixture timeline.

The crash-durability contract under test: a run killed mid-append leaves
a timeline whose last line may be truncated — the reader drops exactly
that line and keeps everything before it — while a malformed line
anywhere *else* is corruption and raises.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.timeline import (
    TIMELINE_NAME,
    TimelineWriter,
    read_timeline,
    snapshots,
    summarize_timeline,
    timeline_meta,
)

FIXTURE_TIMELINE = Path(__file__).parent / "obs_fixtures" / "timeline_fixture.jsonl"


def _snapshot(seq, elapsed, phases=None, rss=None, final=False):
    record = {
        "kind": "snapshot",
        "seq": seq,
        "ts": 1700000000.0 + elapsed,
        "elapsed": elapsed,
        "rss_bytes": rss,
        "phases": phases or {},
        "samples": {},
        "open_spans": [],
    }
    if final:
        record["final"] = True
    return record


def write_fixture(path, records):
    writer = TimelineWriter(str(path))
    for record in records:
        writer.append(record)
    writer.close()


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / TIMELINE_NAME
        records = [
            {"kind": "meta", "schema": 1, "command": "detect",
             "heartbeat_seconds": 0.5},
            _snapshot(1, 0.5),
            {"kind": "marker", "elapsed": 0.7, "resumed_from": 123},
            _snapshot(2, 1.0, final=True),
        ]
        write_fixture(path, records)
        back = read_timeline(str(path))
        assert back == json.loads(json.dumps(records))
        assert timeline_meta(back)["command"] == "detect"
        assert [s["seq"] for s in snapshots(back)] == [1, 2]

    def test_read_accepts_directory(self, tmp_path):
        write_fixture(tmp_path / TIMELINE_NAME, [_snapshot(1, 0.1)])
        assert len(read_timeline(str(tmp_path))) == 1

    def test_truncated_last_line_dropped(self, tmp_path):
        """SIGKILL mid-append: the partial final line is not an error."""
        path = tmp_path / TIMELINE_NAME
        write_fixture(path, [_snapshot(1, 0.5), _snapshot(2, 1.0)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "snapshot", "seq": 3, "elaps')
        back = read_timeline(str(path))
        assert [s["seq"] for s in snapshots(back)] == [1, 2]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / TIMELINE_NAME
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_snapshot(1, 0.5)) + "\n")
            handle.write("{broken\n")
            handle.write(json.dumps(_snapshot(2, 1.0)) + "\n")
        with pytest.raises(ValueError, match=r":2: corrupt timeline record"):
            read_timeline(str(path))

    def test_non_object_record_raises(self, tmp_path):
        path = tmp_path / TIMELINE_NAME
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
            handle.write(json.dumps(_snapshot(1, 0.5)) + "\n")
        with pytest.raises(ValueError, match="not an object"):
            read_timeline(str(path))

    def test_writer_truncates_previous_run(self, tmp_path):
        path = tmp_path / TIMELINE_NAME
        write_fixture(path, [_snapshot(1, 0.5), _snapshot(2, 1.0)])
        write_fixture(path, [_snapshot(1, 0.2)])
        assert [s["seq"] for s in snapshots(read_timeline(str(path)))] == [1]


class TestSummaries:
    def fixture_records(self):
        return [
            {"kind": "meta", "schema": 1, "command": "detect",
             "heartbeat_seconds": 0.5},
            _snapshot(1, 0.5, phases={
                "detect_shards": {"done": 1.0, "total": 4.0, "rate": None},
            }, rss=100 << 20),
            _snapshot(2, 1.0, phases={
                "detect_shards": {"done": 2.0, "total": 4.0, "rate": 2.0},
            }, rss=150 << 20),
            _snapshot(3, 1.5, phases={
                "detect_shards": {"done": 4.0, "total": 4.0, "rate": 4.0},
            }, rss=120 << 20, final=True),
        ]

    def test_summarize(self):
        summary = summarize_timeline(self.fixture_records())
        assert summary["command"] == "detect"
        assert summary["snapshots"] == 3
        assert summary["duration_seconds"] == 1.5
        assert summary["monotonic"] is True
        phase = summary["phases"]["detect_shards"]
        assert phase["done"] == 4.0 and phase["total"] == 4.0
        # 3 units between first-seen (0.5s, done=1) and last (1.5s).
        assert phase["mean_rate"] == 3.0
        assert summary["rss"] == {
            "first_bytes": 100 << 20,
            "max_bytes": 150 << 20,
            "final_bytes": 120 << 20,
        }
        assert summary["mean_interval_seconds"] == 0.5

    def test_summarize_flags_regressed_progress(self):
        records = self.fixture_records()
        records[3]["phases"]["detect_shards"]["done"] = 1.0  # went backwards
        assert summarize_timeline(records)["monotonic"] is False

    def test_summarize_empty(self):
        summary = summarize_timeline([])
        assert summary["snapshots"] == 0
        assert summary["duration_seconds"] is None


class TestCliObsTimeline:
    def test_summary_text(self, capsys):
        assert main(["obs-timeline", str(FIXTURE_TIMELINE)]) == 0
        out = capsys.readouterr().out
        assert "detect_shards" in out
        assert "monotonic" in out

    def test_summary_json(self, capsys):
        assert main([
            "obs-timeline", str(FIXTURE_TIMELINE), "--format", "json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["snapshots"] == 3
        assert payload["summary"]["monotonic"] is True

    def test_missing_timeline_exits_2(self, tmp_path, capsys):
        assert main(["obs-timeline", str(tmp_path)]) == 2
        assert "cannot read timeline" in capsys.readouterr().err
