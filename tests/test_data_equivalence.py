"""Columnar == materialised, across every consumer.

The acceptance bar for the columnar data plane: the batch pipeline, the
sharded parallel pipeline (real process pool), the streaming replay,
and the serving index must produce *identical* findings whether they
read a saved columnar bundle or run the batch pipeline on the in-memory
bundle it was saved from.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import MeasurementPipeline, ParallelMeasurementPipeline
from repro.data import Dataset, open_bundle, write_dataset
from repro.serve import FindingsIndex
from repro.stream import StreamEngine, canonical_findings


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def columnar_dir(small_world, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("eq-columnar"))
    write_dataset(small_world.to_bundle(), directory)
    return directory


@pytest.fixture(scope="module")
def materialised_findings(pipeline_result):
    """The reference: the batch pipeline on the in-memory bundle."""
    return canonical_findings(pipeline_result.findings)


class TestConsumerEquivalence:
    def test_batch_findings_identical(
        self, columnar_dir, cutoff, materialised_findings
    ):
        bundle = open_bundle(columnar_dir)
        result = MeasurementPipeline(bundle, revocation_cutoff_day=cutoff).run()
        assert canonical_findings(result.findings) == materialised_findings

    def test_parallel_process_pool_identical(
        self, columnar_dir, cutoff, materialised_findings
    ):
        bundle = open_bundle(columnar_dir)
        result = ParallelMeasurementPipeline(
            bundle, workers=4, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(result.findings) == materialised_findings
        assert result.shard_stats.executor == "process"

    def test_stream_replay_identical(
        self, columnar_dir, cutoff, materialised_findings
    ):
        bundle = open_bundle(columnar_dir)
        result = StreamEngine(bundle, revocation_cutoff_day=cutoff).replay()
        assert result.complete
        assert canonical_findings(result.findings) == materialised_findings

    def test_serve_index_identical(self, columnar_dir, cutoff, pipeline_result):
        columnar = FindingsIndex(
            MeasurementPipeline.run_bundle(
                open_bundle(columnar_dir), revocation_cutoff_day=cutoff
            )
        )
        materialised = FindingsIndex(pipeline_result)
        assert len(columnar) == len(materialised)
        assert columnar.domains() == materialised.domains()
        assert columnar.aggregates("class") == materialised.aggregates("class")
        assert columnar.aggregates("issuer") == materialised.aggregates("issuer")


class TestForkSafety:
    def test_mmap_survives_process_pool_fork_and_closes(
        self, columnar_dir, cutoff, materialised_findings
    ):
        """A forked worker inherits the parent's mapped segments; runs
        must still merge correctly and the parent must close cleanly."""
        with Dataset.open(columnar_dir) as dataset:
            bundle = dataset.to_bundle()
            with ProcessPoolExecutor(max_workers=2):
                pass  # prove fork itself is safe with segments already mapped
            result = ParallelMeasurementPipeline(
                bundle, workers=2, revocation_cutoff_day=cutoff
            ).run()
            assert canonical_findings(result.findings) == materialised_findings
        # Reopen and run again: closing released the maps, nothing leaked.
        with Dataset.open(columnar_dir) as reopened:
            again = MeasurementPipeline(
                reopened.to_bundle(), revocation_cutoff_day=cutoff
            ).run()
            assert canonical_findings(again.findings) == materialised_findings


class TestEmptyScanDay:
    """A scan that observed nothing is still a scan day: the departure it
    shows is dated on it, read from memory or from the saved calendar."""

    @pytest.fixture(scope="class")
    def bundle(self):
        from repro.core.pipeline import DatasetBundle
        from repro.ct.dedup import CertificateCorpus
        from repro.dns.records import RecordType
        from repro.dns.snapshots import DailySnapshot, SnapshotStore
        from repro.util.dates import day
        from tests.conftest import make_cert

        corpus = CertificateCorpus()
        corpus.ingest(
            [
                make_cert(
                    sans=("sni1.cloudflaressl.com", "cust.com"),
                    not_before=day(2022, 1, 1),
                )
            ]
        )
        store = SnapshotStore()
        for scan_day, nameserver in (
            (day(2022, 6, 1), "ada.ns.cloudflare.com"),
            (day(2022, 6, 2), None),  # every lookup failed
            (day(2022, 6, 3), "ns1.other.net"),
        ):
            snapshot = DailySnapshot(scan_day)
            if nameserver is not None:
                snapshot.observe("cust.com", RecordType.NS, [nameserver])
            store.put(snapshot)
        return DatasetBundle(corpus=corpus, dns_snapshots=store)

    def test_departure_day_survives_the_save(self, bundle, tmp_path):
        from repro.util.dates import day

        materialised = canonical_findings(MeasurementPipeline(bundle).run().findings)
        assert [finding[2] for finding in materialised] == [day(2022, 6, 2)]

        directory = str(tmp_path / "bundle")
        write_dataset(bundle, directory)
        columnar = open_bundle(directory)
        assert columnar.dns_snapshots.days() == bundle.dns_snapshots.days()
        found = canonical_findings(MeasurementPipeline(columnar).run().findings)
        assert found == materialised
        replayed = StreamEngine(columnar).replay()
        assert canonical_findings(replayed.findings) == materialised
