"""Parallel engine: one task per detector, equal to the batch pipeline."""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import pickle
from unittest import mock

import pytest

from repro import MeasurementPipeline, ParallelMeasurementPipeline
from repro.cli import main
from repro.core.pipeline import DETECTOR_REGISTRY, DatasetBundle, PipelineConfig
from repro.data import Dataset, write_dataset
from repro.data.dataset import CertsTable
from repro.dns.snapshots import SnapshotStore
from repro.parallel import run_shard
from repro.stream.engine import canonical_findings
from tests.conftest import recording_builds

ALL_DETECTORS = ("key_compromise", "registrant_change", "managed_tls")


@pytest.fixture(scope="module")
def bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def columnar_dir(small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("columnar"))
    write_dataset(small_world.to_bundle(), directory)
    return directory


@pytest.fixture(scope="module")
def columnar_bundle(columnar_dir):
    """The same world saved with ``write_dataset`` and reopened: the
    bundle every ``--bundle`` run reads."""
    with Dataset.open(columnar_dir) as dataset:
        yield dataset.to_bundle()


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def batch_result(bundle, cutoff):
    return MeasurementPipeline(bundle, revocation_cutoff_day=cutoff).run()


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    """``detect --format json`` arguments over a saved bundle, and the
    single-worker document without ``shard_stats``, as printed."""
    bundle_dir = str(tmp_path_factory.mktemp("cli") / "bundle")
    args = ["--scale", "0.02", "--seed", "7", "detect", "--bundle", bundle_dir,
            "--format", "json"]
    with mock.patch("sys.stdout", new_callable=io.StringIO) as out:
        assert main(args) == 0
    single = json.loads(out.getvalue())
    assert single.pop("shard_stats") is None
    return args, json.dumps(single, indent=2, sort_keys=True)


def _records(result):
    return [f.to_record() for f in result.findings.all_findings()]


def _task_detectors(result):
    """The detector each recorded task ran, in task order."""
    return [
        key for shard in result.shard_stats.shards for key in shard.detector_seconds
    ]


class TestShardPayloads:
    """The spawn path: a task pickles ``(key, bundle, config, collect_trace)``."""

    def test_pickled_columnar_shards_run_like_the_originals(
        self, columnar_bundle, cutoff
    ):
        config = PipelineConfig(revocation_cutoff_day=cutoff)
        copy = pickle.loads(pickle.dumps(columnar_bundle))
        for key in ALL_DETECTORS:
            original = run_shard(key, columnar_bundle, config)
            travelled = run_shard(key, copy, config)
            assert [f.to_record() for f in travelled.findings] == [
                f.to_record() for f in original.findings
            ]
            assert travelled.revocation_stats == original.revocation_stats

    def test_pickled_columnar_bundle_carries_no_rows(self, columnar_bundle):
        """The store and the scans pickle as segment files, never as rows
        or certificates; only the decoded CRL and WHOIS lists travel."""
        assert len(pickle.dumps(columnar_bundle.corpus)) < 4096
        assert len(pickle.dumps(columnar_bundle.dns_snapshots)) < 4096

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_default_non_fork_context_runs_workers(
        self, method, columnar_bundle, cutoff, monkeypatch
    ):
        """A pool on a non-fork default context gets pickled payloads even
        when no start method was set explicitly."""
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing,
            "get_context",
            lambda name=None: get_context(method if name is None else name),
        )
        monkeypatch.setattr(
            multiprocessing,
            "get_start_method",
            lambda allow_none=False: None if allow_none else method,
        )
        single = MeasurementPipeline.run_bundle(
            columnar_bundle, revocation_cutoff_day=cutoff, workers=1
        )
        parallel = MeasurementPipeline.run_bundle(
            columnar_bundle, revocation_cutoff_day=cutoff, workers=2
        )
        assert parallel.shard_stats.executor == "process"
        assert _records(parallel) == _records(single)
        assert parallel.revocation_stats == single.revocation_stats


class TestParentDoesNoRowWork:
    def test_parent_reads_no_key_rows_and_builds_no_certificate(
        self, columnar_dir, cutoff
    ):
        """The parent only starts the pool and merges: a parent-side
        partition (``key_rows()``) or certificate build fails this. The
        patches reach forked workers too, but what a worker records stays
        in its own copy of these collections."""
        key_rows = CertsTable.key_rows
        callers = []

        def recording_key_rows(self):
            callers.append(os.getpid())
            return key_rows(self)

        with Dataset.open(columnar_dir) as dataset:
            bundle = dataset.to_bundle()
            with mock.patch.object(CertsTable, "key_rows", recording_key_rows), \
                    recording_builds() as built:
                result = MeasurementPipeline.run_bundle(
                    bundle, revocation_cutoff_day=cutoff, workers=2
                )
        assert callers == []
        assert built == set()
        assert len(result.findings) > 0


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_worker_counts_match_batch(self, bundle, cutoff, batch_result, workers):
        """Five workers is more than there are detectors: the pool never
        starts more processes than tasks."""
        result = MeasurementPipeline.run_bundle(
            bundle, revocation_cutoff_day=cutoff, workers=workers
        )
        assert _records(result) == _records(batch_result)
        assert result.revocation_stats == batch_result.revocation_stats
        assert result.windows == batch_result.windows
        assert _task_detectors(result) == list(ALL_DETECTORS)
        assert result.shard_stats.workers == workers

    @pytest.mark.parametrize("workers", ["2", "3", "5"])
    def test_detect_json_is_byte_identical(self, cli_bundle, capsys, workers):
        args, single = cli_bundle
        assert main(args + ["--workers", workers]) == 0
        parallel = json.loads(capsys.readouterr().out)
        stats = parallel.pop("shard_stats")
        assert stats["num_shards"] == len(ALL_DETECTORS)
        assert json.dumps(parallel, indent=2, sort_keys=True) == single

    def test_process_pool_four_workers_match_batch(self, bundle, cutoff, batch_result):
        result = ParallelMeasurementPipeline(
            bundle, workers=4, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(result.findings) == canonical_findings(
            batch_result.findings
        )
        assert result.revocation_stats == batch_result.revocation_stats
        assert result.shard_stats.executor == "process"

    def test_merged_findings_order_is_deterministic(self, bundle, cutoff):
        first = ParallelMeasurementPipeline(
            bundle, workers=2, revocation_cutoff_day=cutoff
        ).run()
        second = ParallelMeasurementPipeline(
            bundle, workers=3, revocation_cutoff_day=cutoff
        ).run()
        assert _records(first) == _records(second)

    def test_no_crls_means_no_revocation_stats(self, bundle, cutoff):
        reduced = DatasetBundle(
            corpus=bundle.corpus,
            crls=[],
            whois_creation_pairs=bundle.whois_creation_pairs,
            dns_snapshots=bundle.dns_snapshots,
            windows=bundle.windows,
        )
        batch = MeasurementPipeline(reduced, revocation_cutoff_day=cutoff).run()
        parallel = ParallelMeasurementPipeline(
            reduced, workers=2, revocation_cutoff_day=cutoff
        ).run()
        assert parallel.revocation_stats is None
        assert batch.revocation_stats is None
        assert _task_detectors(parallel) == ["registrant_change", "managed_tls"]
        assert _records(parallel) == _records(batch)

    def test_single_snapshot_disables_managed_tls(self, bundle, cutoff):
        store = SnapshotStore()
        first_day = bundle.dns_snapshots.days()[0]
        store.put(bundle.dns_snapshots.get(first_day))
        reduced = DatasetBundle(
            corpus=bundle.corpus,
            crls=bundle.crls,
            whois_creation_pairs=[],
            dns_snapshots=store,
            windows=bundle.windows,
        )
        batch = MeasurementPipeline(reduced, revocation_cutoff_day=cutoff).run()
        parallel = ParallelMeasurementPipeline(
            reduced, workers=2, revocation_cutoff_day=cutoff
        ).run()
        assert _task_detectors(parallel) == ["key_compromise"]
        assert _records(parallel) == _records(batch)
        assert parallel.revocation_stats == batch.revocation_stats

    def test_no_applicable_detector_starts_no_pool(self, bundle, cutoff):
        empty = DatasetBundle(corpus=bundle.corpus)
        result = ParallelMeasurementPipeline(
            empty, workers=2, revocation_cutoff_day=cutoff
        ).run()
        assert len(result.findings) == 0
        assert result.revocation_stats is None
        assert result.shard_stats.num_shards == 0
        assert result.shard_stats.shards == []

    def test_shard_stats_account_for_the_run(self, bundle, cutoff):
        result = ParallelMeasurementPipeline(
            bundle, workers=2, revocation_cutoff_day=cutoff
        ).run()
        stats = result.shard_stats
        assert stats is not None
        assert stats.num_shards == len(ALL_DETECTORS)
        assert stats.workers == 2
        assert [shard.index for shard in stats.shards] == [0, 1, 2]
        assert stats.total_findings == len(result.findings)
        for shard, spec in zip(stats.shards, DETECTOR_REGISTRY):
            assert list(shard.detector_seconds) == [spec.key]
            assert shard.seconds >= shard.detector_seconds[spec.key]

    def test_invalid_worker_counts_rejected(self, bundle):
        with pytest.raises(ValueError):
            ParallelMeasurementPipeline(bundle, workers=0)
