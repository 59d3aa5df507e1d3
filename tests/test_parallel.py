"""Sharded parallel engine: partition invariants and batch equivalence."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro import MeasurementPipeline, ParallelMeasurementPipeline
from repro.core.pipeline import DatasetBundle
from repro.data import Dataset, write_dataset
from repro.dns.snapshots import SnapshotStore
from repro.obs import MetricsRegistry, names, use_registry
from repro.parallel import (
    ProcessPoolShardExecutor,
    SerialExecutor,
    WorkerConfig,
    domain_key,
    partition_bundle,
    run_shard,
)
from repro.stream.engine import canonical_findings


@pytest.fixture(scope="module")
def bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def columnar_bundle(small_world, tmp_path_factory):
    """The same world saved with ``write_dataset`` and reopened: the
    bundle every ``--bundle`` run partitions."""
    directory = str(tmp_path_factory.mktemp("columnar"))
    write_dataset(small_world.to_bundle(), directory)
    with Dataset.open(directory) as dataset:
        yield dataset.to_bundle()


def _fingerprints(corpus):
    return [certificate.dedup_fingerprint() for certificate in corpus.certificates()]


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def batch_result(bundle, cutoff):
    return MeasurementPipeline(bundle, revocation_cutoff_day=cutoff).run()


@pytest.fixture(scope="module")
def plan(bundle):
    return partition_bundle(bundle, 4)


class TestPartitionInvariants:
    def test_rejects_zero_shards(self, bundle):
        with pytest.raises(ValueError):
            partition_bundle(bundle, 0)

    def test_every_certificate_in_exactly_one_shard_per_axis(self, bundle, plan):
        all_fingerprints = {
            certificate.dedup_fingerprint()
            for certificate in bundle.corpus.certificates()
        }
        for axis in ("revocation_corpus", "domain_corpus"):
            per_shard = [
                {c.dedup_fingerprint() for c in getattr(shard, axis).certificates()}
                for shard in plan.shards
            ]
            assert sum(len(s) for s in per_shard) == len(all_fingerprints), axis
            union = set()
            for shard_set in per_shard:
                assert not (union & shard_set), f"{axis}: fingerprint in two shards"
                union |= shard_set
            assert union == all_fingerprints, axis

    def test_revocation_keys_never_straddle_shards(self, plan):
        for shard in plan.shards:
            for certificate in shard.revocation_corpus.certificates():
                assert (
                    plan.revocation_assignment[certificate.authority_key_id]
                    == shard.index
                )
            for crl in shard.crls:
                assert plan.revocation_assignment[crl.authority_key_id] == shard.index

    def test_domain_keys_never_straddle_shards(self, plan):
        for shard in plan.shards:
            for certificate in shard.domain_corpus.certificates():
                for registrable in certificate.e2lds():
                    # Every join key of a certificate lives where the
                    # certificate lives: the RC/MT lookups cannot miss.
                    assert plan.domain_assignment[registrable] == shard.index
            for domain, _creation_day in shard.whois_creation_pairs:
                assert plan.domain_assignment[domain_key(domain)] == shard.index
            for scan_day in shard.dns_snapshots.days():
                for apex in shard.dns_snapshots.cloudflare(scan_day):
                    assert plan.shard_of(domain_key(apex)) == shard.index

    def test_inputs_are_fully_covered(self, bundle, plan):
        assert sum(len(s.crls) for s in plan.shards) == len(bundle.crls)
        assert sum(len(s.whois_creation_pairs) for s in plan.shards) == len(
            bundle.whois_creation_pairs
        )
        # Each (day, apex) row lands in exactly one shard's view.
        for scan_day in bundle.dns_snapshots.days():
            rows = {}
            for shard in plan.shards:
                view = shard.dns_snapshots.cloudflare(scan_day)
                assert not (rows.keys() & view.keys())
                rows.update(view)
            assert rows == bundle.dns_snapshots.cloudflare(scan_day)

    def test_every_shard_sees_every_scan_day(self, bundle, plan):
        # The managed-TLS lookahead needs the full day grid even on shards
        # that own no apexes on a given day.
        expected_days = bundle.dns_snapshots.days()
        for shard in plan.shards:
            assert shard.dns_snapshots.days() == expected_days

    def test_single_shard_partition_is_the_whole_bundle(self, bundle):
        plan = partition_bundle(bundle, 1)
        shard = plan.shards[0]
        assert len(shard.revocation_corpus) == len(bundle.corpus)
        assert len(shard.domain_corpus) == len(bundle.corpus)
        assert len(shard.crls) == len(bundle.crls)
        assert len(shard.whois_creation_pairs) == len(bundle.whois_creation_pairs)

    def test_partition_is_deterministic(self, bundle, plan):
        again = partition_bundle(bundle, 4)
        assert again.domain_assignment == plan.domain_assignment
        assert again.revocation_assignment == plan.revocation_assignment
        for shard, shard_again in zip(plan.shards, again.shards):
            assert _fingerprints(shard.domain_corpus) == _fingerprints(
                shard_again.domain_corpus
            )


class TestColumnarPartitionInvariants(TestPartitionInvariants):
    """Every invariant above, on the reopened columnar bundle."""

    @pytest.fixture(scope="class")
    def bundle(self, columnar_bundle):
        return columnar_bundle

    @pytest.fixture(scope="class")
    def plan(self, columnar_bundle):
        return partition_bundle(columnar_bundle, 4)

    def test_columnar_plan_equals_in_memory_plan(self, plan, small_world):
        in_memory = partition_bundle(small_world.to_bundle(), 4)
        assert plan.revocation_assignment == in_memory.revocation_assignment
        assert plan.domain_assignment == in_memory.domain_assignment
        for shard, expected in zip(plan.shards, in_memory.shards):
            for axis in ("revocation_corpus", "domain_corpus"):
                assert _fingerprints(getattr(shard, axis)) == _fingerprints(
                    getattr(expected, axis)
                ), axis


class TestPartitionReadsNoDns:
    def test_partition_opens_no_dns_segment(self, small_world, tmp_path, cutoff):
        """The parent routes DNS apexes by rule, not by reading them: with
        the dns segments unmapped, partitioning maps none of them again,
        and the shards read their own DNS to the batch findings."""
        directory = str(tmp_path / "bundle")
        write_dataset(small_world.to_bundle(), directory)
        with Dataset.open(directory) as dataset:
            bundle = dataset.to_bundle()
            dataset.dns.close()
            with use_registry(MetricsRegistry()) as registry:
                partition_bundle(bundle, 2)
            assert registry.counter_total(names.DATA_SEGMENTS_OPENED) == 0
            with use_registry(MetricsRegistry()) as registry:
                sharded = ParallelMeasurementPipeline(
                    bundle, workers=1, num_shards=2, revocation_cutoff_day=cutoff
                ).run()
            opened = registry.counter(names.DATA_SEGMENTS_OPENED, labels=("table",))
            assert opened.value(table="dns") > 0
            batch = MeasurementPipeline(bundle, revocation_cutoff_day=cutoff).run()
        assert canonical_findings(sharded.findings) == canonical_findings(batch.findings)


class TestShardPayloads:
    """The spawn executor path: shards travel by pickle."""

    def test_pickled_columnar_shards_run_like_the_originals(
        self, columnar_bundle, cutoff
    ):
        plan = partition_bundle(columnar_bundle, 3)
        config = WorkerConfig(
            revocation_cutoff_day=cutoff,
            enabled=("key_compromise", "registrant_change", "managed_tls"),
        )
        for shard in plan.shards:
            copy = pickle.loads(pickle.dumps(shard))
            original, travelled = run_shard(shard, config), run_shard(copy, config)
            assert [f.to_record() for f in travelled.findings] == [
                f.to_record() for f in original.findings
            ]
            assert travelled.revocation_stats == original.revocation_stats

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
        sharded = MeasurementPipeline.run_bundle(
            columnar_bundle, revocation_cutoff_day=cutoff, workers=2
        )
        assert sharded.shard_stats.executor == "process"
        assert [f.to_record() for f in sharded.findings.all_findings()] == [
            f.to_record() for f in single.findings.all_findings()
        ]
        assert sharded.revocation_stats == single.revocation_stats


class TestEquivalence:
    def test_serial_four_shards_match_batch(self, bundle, cutoff, batch_result):
        result = ParallelMeasurementPipeline(
            bundle, workers=1, num_shards=4, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(result.findings) == canonical_findings(
            batch_result.findings
        )
        assert result.revocation_stats == batch_result.revocation_stats
        assert result.windows == batch_result.windows

    def test_process_pool_four_workers_match_batch(self, bundle, cutoff, batch_result):
        result = ParallelMeasurementPipeline(
            bundle, workers=4, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(result.findings) == canonical_findings(
            batch_result.findings
        )
        assert result.revocation_stats == batch_result.revocation_stats
        assert result.shard_stats.executor == "process"

    def test_many_small_shards_match_batch(self, bundle, cutoff, batch_result):
        result = ParallelMeasurementPipeline(
            bundle,
            workers=1,
            num_shards=13,
            revocation_cutoff_day=cutoff,
            executor=SerialExecutor(),
        ).run()
        assert canonical_findings(result.findings) == canonical_findings(
            batch_result.findings
        )
        assert result.revocation_stats == batch_result.revocation_stats

    def test_merged_findings_order_is_deterministic(self, bundle, cutoff):
        first = ParallelMeasurementPipeline(
            bundle, workers=1, num_shards=4, revocation_cutoff_day=cutoff
        ).run()
        second = ParallelMeasurementPipeline(
            bundle, workers=1, num_shards=4, revocation_cutoff_day=cutoff
        ).run()
        assert [f.to_record() for f in first.findings.all_findings()] == [
            f.to_record() for f in second.findings.all_findings()
        ]

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
            reduced, workers=1, num_shards=4, revocation_cutoff_day=cutoff
        ).run()
        assert parallel.revocation_stats is None
        assert batch.revocation_stats is None
        assert canonical_findings(parallel.findings) == canonical_findings(
            batch.findings
        )

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
            reduced, workers=1, num_shards=3, revocation_cutoff_day=cutoff
        ).run()
        assert canonical_findings(parallel.findings) == canonical_findings(
            batch.findings
        )
        assert parallel.revocation_stats == batch.revocation_stats

    def test_shard_stats_account_for_the_run(self, bundle, cutoff):
        result = ParallelMeasurementPipeline(
            bundle, workers=1, num_shards=4, revocation_cutoff_day=cutoff
        ).run()
        stats = result.shard_stats
        assert stats is not None
        assert stats.num_shards == 4
        assert stats.executor == "serial"
        assert len(stats.shards) == 4
        assert stats.total_findings == len(result.findings)
        assert sum(s.revocation_certificates for s in stats.shards) == len(
            bundle.corpus
        )
        for shard in stats.shards:
            assert set(shard.detector_seconds) == {
                "key_compromise", "registrant_change", "managed_tls",
            }

    def test_invalid_worker_counts_rejected(self, bundle):
        with pytest.raises(ValueError):
            ParallelMeasurementPipeline(bundle, workers=0)
        with pytest.raises(ValueError):
            ProcessPoolShardExecutor(0)
