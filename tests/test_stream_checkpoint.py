"""Acceptance criterion: kill at an arbitrary day + resume == uninterrupted.

A replay killed mid-stream and resumed from its checkpoint must converge to
the identical findings set (and matching statistics) as an uninterrupted
run — which itself equals the batch pipeline. A checkpoint is the feed's
offset and resume replays the prefix silently, so late kills, with joins
in flight, must give back the whole engine: wrapper stats, stream counts
and the live feed after the cursor. Also covers the checkpoint store
itself: atomicity, format versioning, and bundle/config-mismatch detection.
"""

import os

import pytest

from repro.data import open_bundle
from repro.ecosystem.timeline import DEFAULT_TIMELINE
from repro.stream import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    StreamEngine,
    canonical_findings,
    verify_equivalence,
)
from repro.stream.checkpoint import CHECKPOINT_FORMAT_VERSION
from repro.util.dates import day
from repro.util.storage import dump_json

#: Kill points, keyed by the test ids they keep: after one event-day, and at
#: the last day 200, 1,400, 1,900 and 2,050 event-days reached when every CT
#: entry was a stream event. A day-counted kill that late would now run to
#: completion (small_world has 1,331 event-days, streamgen 859).
KILL_POINTS = {
    "1": {"max_days": 1},
    "200": {"through_day": day(2016, 2, 10)},
    "1400": {"through_day": day(2020, 8, 12)},
    "1900": {"through_day": day(2022, 10, 1)},
    "2050": {"through_day": day(2023, 3, 1)},
}


@pytest.fixture(scope="module")
def small_bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def uninterrupted(small_bundle, cutoff):
    return StreamEngine(small_bundle, revocation_cutoff_day=cutoff).replay()


@pytest.fixture(scope="module")
def streamgen_run(streamgen_dir):
    return _feed_run(streamgen_dir)


def _feed_run(streamgen_dir, store=None, **replay):
    """Replay a fresh open of the streamgen bundle, recording the live feed
    as (day, class, fingerprint, domain, detail) in order."""
    feed = []

    def on_finding(event):
        finding = event.finding
        feed.append((
            event.day,
            finding.staleness_class.value,
            finding.certificate.dedup_fingerprint(),
            finding.affected_domain,
            finding.detail,
        ))

    engine = StreamEngine(
        open_bundle(streamgen_dir),
        revocation_cutoff_day=DEFAULT_TIMELINE.revocation_cutoff,
        checkpoint_store=store,
        on_finding=on_finding,
    )
    return engine, engine.replay(**replay), feed


def _kill_and_resume(bundle, cutoff, tmp_path, every=25, **limit):
    store = CheckpointStore(str(tmp_path))
    partial = StreamEngine(
        bundle,
        revocation_cutoff_day=cutoff,
        checkpoint_store=store,
        checkpoint_every_days=every,
    ).replay(**limit)
    assert not partial.complete
    resumed = StreamEngine(
        bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
    ).replay(resume=True)
    assert resumed.complete
    return partial, resumed


class TestKillResume:
    @pytest.mark.parametrize("kill", ["1", "200", "1400"])
    def test_resume_converges_to_uninterrupted(
        self, small_bundle, cutoff, tmp_path, uninterrupted, kill
    ):
        partial, resumed = _kill_and_resume(
            small_bundle, cutoff, tmp_path, **KILL_POINTS[kill]
        )
        assert canonical_findings(resumed.findings) == canonical_findings(
            uninterrupted.findings
        )
        assert resumed.revocation_stats == uninterrupted.revocation_stats
        assert resumed.stats.resumed_from_day == partial.cursor_day

    @pytest.mark.parametrize("kill", ["1900", "2050"])
    def test_resume_in_flight_equals_uninterrupted_engine(
        self, streamgen_dir, streamgen_run, tmp_path, kill
    ):
        engine, result, feed = streamgen_run
        store = CheckpointStore(str(tmp_path))
        _, partial, killed_feed = _feed_run(
            streamgen_dir, store=store, **KILL_POINTS[kill]
        )
        assert not partial.complete
        resumed_engine, resumed, resumed_feed = _feed_run(
            streamgen_dir, store=store, resume=True
        )
        assert resumed.complete
        assert {k: d.stats for k, d in resumed_engine._detectors.items()} == {
            k: d.stats for k, d in engine._detectors.items()
        }
        for counts in ("events_by_type", "findings_by_class", "days_processed"):
            assert getattr(resumed.stats, counts) == getattr(result.stats, counts)
        assert resumed_feed == [f for f in feed if f[0] > partial.cursor_day]
        assert killed_feed + resumed_feed == feed

    def test_resume_under_other_detector_config_rejected(
        self, small_bundle, cutoff, tmp_path
    ):
        store = CheckpointStore(str(tmp_path))
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=100)
        with pytest.raises(CheckpointMismatchError, match="detector configuration"):
            StreamEngine(
                small_bundle,
                revocation_cutoff_day=cutoff,
                whois_tlds=None,
                checkpoint_store=store,
            ).replay(resume=True)

    def test_format_v1_checkpoint_rejected(self, small_bundle, cutoff, tmp_path):
        store = CheckpointStore(str(tmp_path))
        dump_json(store.path, {"format_version": 1, "cursor_day": 100})
        with pytest.raises(CheckpointMismatchError, match="v1"):
            StreamEngine(
                small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
            ).replay(resume=True)

    def test_checkpoint_is_the_feed_offset(self, small_bundle, cutoff, tmp_path):
        store = CheckpointStore(str(tmp_path))
        partial = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=100)
        assert set(store.load()) == {
            "format_version", "identity", "cursor_day", "finalized",
            "checkpoints_written",
        }
        assert store.load()["cursor_day"] == partial.cursor_day

    def test_resume_equals_batch(self, small_bundle, cutoff, tmp_path):
        _, resumed = _kill_and_resume(small_bundle, cutoff, tmp_path, max_days=700)
        ok, _ = verify_equivalence(
            small_bundle, resumed.findings, revocation_cutoff_day=cutoff
        )
        assert ok

    def test_double_kill_double_resume(self, small_bundle, cutoff, tmp_path, uninterrupted):
        store = CheckpointStore(str(tmp_path))
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=300)
        second = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=400, resume=True)
        assert not second.complete
        final = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(resume=True)
        assert final.complete
        assert canonical_findings(final.findings) == canonical_findings(
            uninterrupted.findings
        )

    def test_cumulative_day_count_survives_resume(self, small_bundle, cutoff, tmp_path, uninterrupted):
        _, resumed = _kill_and_resume(small_bundle, cutoff, tmp_path, max_days=500)
        assert resumed.stats.days_processed == uninterrupted.stats.days_processed

    def test_resume_without_checkpoint_is_fresh_run(self, small_bundle, cutoff, tmp_path, uninterrupted):
        store = CheckpointStore(str(tmp_path / "empty"))
        result = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(resume=True)
        assert result.complete
        assert result.stats.resumed_from_day is None
        assert canonical_findings(result.findings) == canonical_findings(
            uninterrupted.findings
        )

    def test_mismatched_bundle_rejected(self, small_bundle, cutoff, tmp_path):
        from repro.core.pipeline import DatasetBundle

        store = CheckpointStore(str(tmp_path))
        StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
        ).replay(max_days=100)
        other = DatasetBundle(corpus=small_bundle.corpus)  # different datasets
        with pytest.raises(CheckpointMismatchError):
            StreamEngine(
                other, revocation_cutoff_day=cutoff, checkpoint_store=store
            ).replay(resume=True)


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        assert store.load() is None
        store.save({"cursor_day": 42})
        loaded = store.load()
        assert loaded["cursor_day"] == 42
        assert loaded["format_version"] == CHECKPOINT_FORMAT_VERSION

    def test_save_is_atomic(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"cursor_day": 1})
        assert not os.path.exists(store.path + ".tmp")

    def test_clear(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"cursor_day": 1})
        store.clear()
        assert store.load() is None

    def test_unknown_format_version_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        dump_json(store.path, {"format_version": 999})
        with pytest.raises(CheckpointMismatchError, match="v999"):
            store.load()


class TestCorruptCheckpoints:
    """Regression: unreadable checkpoints raised raw gzip/JSON tracebacks
    (``BadGzipFile`` / ``EOFError`` / ``JSONDecodeError``) instead of a
    checkpoint-layer error naming the file and the remedy."""

    def test_garbage_bytes_raise_corrupt_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        os.makedirs(store.directory, exist_ok=True)
        with open(store.path, "wb") as handle:
            handle.write(b"this is not a gzip stream")
        with pytest.raises(CheckpointCorruptError, match="truncated or corrupt"):
            store.load()

    def test_truncated_gzip_raises_corrupt_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save({"cursor_day": 42})
        with open(store.path, "rb") as handle:
            payload = handle.read()
        assert len(payload) > 12
        with open(store.path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])  # deliberate truncation
        with pytest.raises(CheckpointCorruptError) as excinfo:
            store.load()
        assert store.path in str(excinfo.value)

    def test_non_document_payload_raises_corrupt_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        dump_json(store.path, [1, 2, 3])
        with pytest.raises(CheckpointCorruptError, match="checkpoint document"):
            store.load()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("identity", 42),
            ("cursor_day", "2021-01-01"),
            ("cursor_day", True),
            ("finalized", "no"),
            ("checkpoints_written", -1),
        ],
    )
    def test_malformed_field_raises_corrupt_error(self, tmp_path, field, value):
        # Regression: a string cursor_day passed load() and crashed replay()
        # with a TypeError comparing it to an event day.
        store = CheckpointStore(str(tmp_path))
        store.save(
            {
                "identity": "0123456789abcdef",
                "cursor_day": 738000,
                "finalized": False,
                "checkpoints_written": 3,
                field: value,
            }
        )
        with pytest.raises(CheckpointCorruptError, match=f"malformed '{field}'"):
            store.load()

    def test_corrupt_error_is_a_checkpoint_error(self):
        # The CLI catches the base class to cover mismatch AND corruption.
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointMismatchError, CheckpointError)

    def test_resume_against_corrupt_checkpoint_raises(
        self, small_bundle, cutoff, tmp_path
    ):
        store = CheckpointStore(str(tmp_path))
        engine = StreamEngine(
            small_bundle,
            revocation_cutoff_day=cutoff,
            checkpoint_store=store,
            checkpoint_every_days=5,
        )
        engine.replay(max_days=10)
        with open(store.path, "rb") as handle:
            payload = handle.read()
        with open(store.path, "wb") as handle:
            handle.write(payload[: len(payload) // 3])
        with pytest.raises(CheckpointCorruptError):
            StreamEngine(
                small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
            ).replay(resume=True)
