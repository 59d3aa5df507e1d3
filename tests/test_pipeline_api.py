"""Pipeline API surface: run_bundle, result persistence, Detector protocol."""

from __future__ import annotations

import pytest

from repro import MeasurementPipeline, StalenessClass
from repro.core.detectors import (
    Detector,
    KeyCompromiseDetector,
    ManagedTlsDetector,
    RegistrantChangeDetector,
)
from repro.core.pipeline import DETECTOR_REGISTRY, DatasetBundle, PipelineResult
from repro.ct.dedup import CertificateCorpus
from repro.stream.engine import StreamEngine, canonical_findings


@pytest.fixture(scope="module")
def bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


class TestRunBundle:
    def test_matches_constructor_path(self, bundle, cutoff, pipeline_result):
        result = MeasurementPipeline.run_bundle(bundle, revocation_cutoff_day=cutoff)
        assert canonical_findings(result.findings) == canonical_findings(
            pipeline_result.findings
        )
        assert result.revocation_stats == pipeline_result.revocation_stats

    def test_workers_route_to_parallel_engine(self, bundle, cutoff, pipeline_result):
        result = MeasurementPipeline.run_bundle(
            bundle, revocation_cutoff_day=cutoff, workers=2
        )
        assert canonical_findings(result.findings) == canonical_findings(
            pipeline_result.findings
        )
        assert result.shard_stats is not None
        assert result.shard_stats.workers == 2

    def test_single_worker_has_no_shard_stats(self, bundle, cutoff):
        result = MeasurementPipeline.run_bundle(bundle, revocation_cutoff_day=cutoff)
        assert result.shard_stats is None


class TestResultPersistence:
    def test_round_trip(self, tmp_path, pipeline_result):
        path = str(tmp_path / "result.json")
        pipeline_result.to_json(path)
        restored = PipelineResult.from_json(path)
        assert canonical_findings(restored.findings) == canonical_findings(
            pipeline_result.findings
        )
        assert restored.revocation_stats == pipeline_result.revocation_stats
        assert restored.windows == pipeline_result.windows
        assert restored.shard_stats is None

    def test_round_trip_gzipped(self, tmp_path, pipeline_result):
        path = str(tmp_path / "result.json.gz")
        pipeline_result.to_json(path)
        restored = PipelineResult.from_json(path)
        assert len(restored.findings) == len(pipeline_result.findings)

    def test_round_trip_preserves_shard_stats(self, tmp_path, bundle, cutoff):
        result = MeasurementPipeline.run_bundle(
            bundle, revocation_cutoff_day=cutoff, workers=2
        )
        path = str(tmp_path / "parallel.json")
        result.to_json(path)
        restored = PipelineResult.from_json(path)
        assert restored.shard_stats is not None
        assert restored.shard_stats.num_shards == result.shard_stats.num_shards
        assert [s.to_record() for s in restored.shard_stats.shards] == [
            s.to_record() for s in result.shard_stats.shards
        ]

    def test_aggregates_survive_round_trip(self, tmp_path, pipeline_result):
        path = str(tmp_path / "result.json")
        pipeline_result.to_json(path)
        restored = PipelineResult.from_json(path)
        original = {
            row.staleness_class: row.stale_certificates
            for row in pipeline_result.aggregate_table()
        }
        assert {
            row.staleness_class: row.stale_certificates
            for row in restored.aggregate_table()
        } == original


class TestDetectorProtocol:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: KeyCompromiseDetector(CertificateCorpus()),
            lambda: RegistrantChangeDetector(CertificateCorpus()),
            lambda: ManagedTlsDetector(CertificateCorpus()),
        ],
        ids=["batch-kc", "batch-rc", "batch-mt"],
    )
    def test_all_detectors_satisfy_protocol(self, build):
        assert isinstance(build(), Detector)

    def test_registry_keys_match_stream_names(self, bundle, cutoff):
        # The stream engine drives the registry's own detector classes.
        engine = StreamEngine(bundle, revocation_cutoff_day=cutoff)
        assert [(key, type(d)) for key, d in engine._detectors.items()] == [
            ("key_compromise", KeyCompromiseDetector),
            ("registrant_change", RegistrantChangeDetector),
            ("managed_tls", ManagedTlsDetector),
        ]

    def test_registry_applies_gates_on_dataset_presence(self):
        empty = DatasetBundle(corpus=CertificateCorpus())
        assert [spec.applies(empty) for spec in DETECTOR_REGISTRY] == [
            False, False, False,
        ]

    def test_registry_applies_matches_batch_gating(self, bundle):
        assert all(spec.applies(bundle) for spec in DETECTOR_REGISTRY)

    def test_empty_bundle_runs_no_detectors(self):
        result = MeasurementPipeline.run_bundle(DatasetBundle(corpus=CertificateCorpus()))
        assert len(result.findings) == 0
        assert result.revocation_stats is None

    def test_registry_stats_exposed(self, bundle, cutoff):
        # Each batch detector exposes join accounting after a run.
        pipeline = MeasurementPipeline(bundle, revocation_cutoff_day=cutoff)
        result = pipeline.run()
        assert result.revocation_stats.crl_entries_merged > 0
        assert result.findings.of_class(StalenessClass.REVOKED_ALL)
