"""Acceptance criterion: streaming replay == batch pipeline, exactly.

The streaming engine must produce a StaleFindings set identical to
``MeasurementPipeline.run()`` over the same world — same certificates, same
classes, same invalidation days, same details — plus identical revocation
join statistics. Runs against the session-scoped small world (a full
2013–2023 simulation) and a few reduced bundles that exercise the
detector-skipping edges of the batch pipeline.
"""

import hashlib
import json

import pytest

from repro import MeasurementPipeline
from repro.core.pipeline import DatasetBundle
from repro.core.stale import StalenessClass
from repro.data import open_bundle
from repro.ecosystem.timeline import DEFAULT_TIMELINE
from repro.stream import (
    CheckpointStore,
    StreamEngine,
    canonical_findings,
    verify_equivalence,
)


@pytest.fixture(scope="module")
def small_bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


@pytest.fixture(scope="module")
def stream_result(small_bundle, cutoff):
    return StreamEngine(small_bundle, revocation_cutoff_day=cutoff).replay()


class TestFullWorldEquivalence:
    def test_replay_completes(self, stream_result):
        assert stream_result.complete
        assert stream_result.stats.days_processed > 0

    def test_findings_identical_to_batch(self, small_bundle, cutoff, stream_result):
        ok, batch = verify_equivalence(
            small_bundle, stream_result.findings, revocation_cutoff_day=cutoff
        )
        assert ok, "streaming findings diverge from the batch pipeline"
        # Non-trivial: the world actually produces findings in every class.
        produced = {f.staleness_class for f in batch.findings.all_findings()}
        assert StalenessClass.REVOKED_ALL in produced
        assert StalenessClass.REGISTRANT_CHANGE in produced
        assert StalenessClass.MANAGED_TLS_DEPARTURE in produced

    def test_revocation_stats_identical(self, small_bundle, cutoff, stream_result):
        batch = MeasurementPipeline(
            small_bundle, revocation_cutoff_day=cutoff
        ).run()
        assert stream_result.revocation_stats == batch.revocation_stats

    def test_to_pipeline_result_feeds_report_layer(self, stream_result):
        from repro.analysis.aggregate import build_table4

        rows = build_table4(stream_result.to_pipeline_result())
        assert rows  # Table 4 renders from the streaming result

    def test_stats_count_every_finding_emission(self, stream_result):
        # Emission count >= converged count (revisions re-emit), and every
        # converged class appears in the stats.
        converged = {}
        for finding in stream_result.findings.all_findings():
            key = finding.staleness_class.value
            converged[key] = converged.get(key, 0) + 1
        for class_value, count in converged.items():
            assert stream_result.stats.findings_by_class.get(class_value, 0) >= count


class TestReducedBundles:
    """The batch pipeline skips detectors for absent datasets; streaming
    must land in exactly the same place."""

    def _equivalent(self, bundle, cutoff):
        result = StreamEngine(bundle, revocation_cutoff_day=cutoff).replay()
        ok, batch = verify_equivalence(
            bundle, result.findings, revocation_cutoff_day=cutoff
        )
        assert ok
        return result, batch

    def test_ct_only(self, small_bundle, cutoff):
        bundle = DatasetBundle(corpus=small_bundle.corpus)
        result, _ = self._equivalent(bundle, cutoff)
        assert canonical_findings(result.findings) == []
        assert result.revocation_stats is None

    def test_no_dns(self, small_bundle, cutoff):
        bundle = DatasetBundle(
            corpus=small_bundle.corpus,
            crls=small_bundle.crls,
            whois_creation_pairs=small_bundle.whois_creation_pairs,
        )
        result, batch = self._equivalent(bundle, cutoff)
        classes = {f.staleness_class for f in result.findings.all_findings()}
        assert StalenessClass.MANAGED_TLS_DEPARTURE not in classes

    def test_no_whois_tlds(self, small_bundle, cutoff):
        result = StreamEngine(
            small_bundle, revocation_cutoff_day=cutoff, whois_tlds=()
        ).replay()
        ok, _ = verify_equivalence(
            small_bundle, result.findings, revocation_cutoff_day=cutoff, whois_tlds=()
        )
        assert ok
        classes = {f.staleness_class for f in result.findings.all_findings()}
        assert StalenessClass.REGISTRANT_CHANGE not in classes


class TestBuildsOnlyWhatBatchBuilds:
    """Stream events carry corpus rows: a replay, and a killed replay
    resumed in a fresh process, build no certificate that cold batch
    detection does not (counted on fresh columnar bundles)."""

    CUTOFF = DEFAULT_TIMELINE.revocation_cutoff

    @pytest.fixture(scope="class")
    def batch_built(self, streamgen_dir):
        bundle = open_bundle(streamgen_dir)
        MeasurementPipeline.run_bundle(bundle, revocation_cutoff_day=self.CUTOFF)
        built = len(bundle.corpus._hydrated)
        assert 0 < built < len(bundle.corpus)
        return built

    def test_full_replay(self, streamgen_dir, batch_built):
        bundle = open_bundle(streamgen_dir)
        assert StreamEngine(bundle, revocation_cutoff_day=self.CUTOFF).replay().complete
        assert len(bundle.corpus._hydrated) <= batch_built

    def test_kill_then_resume(self, streamgen_dir, batch_built, tmp_path):
        store = CheckpointStore(str(tmp_path))
        killed = open_bundle(streamgen_dir)
        partial = StreamEngine(
            killed, revocation_cutoff_day=self.CUTOFF, checkpoint_store=store
        ).replay(max_days=200)
        assert not partial.complete
        resumed = open_bundle(streamgen_dir)
        assert StreamEngine(
            resumed, revocation_cutoff_day=self.CUTOFF, checkpoint_store=store
        ).replay(resume=True).complete
        assert len(killed.corpus._hydrated) <= batch_built
        assert len(resumed.corpus._hydrated) <= batch_built


class TestBatchBuildsOnlyItsFindings:
    """Every join filters on row columns first: cold batch detection builds
    exactly the distinct certificates of its findings."""

    def test_cold_batch(self, streamgen_dir):
        bundle = open_bundle(streamgen_dir)
        result = MeasurementPipeline.run_bundle(
            bundle, revocation_cutoff_day=DEFAULT_TIMELINE.revocation_cutoff
        )
        emitted = {f.certificate.dedup_fingerprint() for f in result.findings.all_findings()}
        built = {c.dedup_fingerprint() for c in bundle.corpus._hydrated.values()}
        assert built == emitted
        assert len(built) == 554


class TestLiveFeed:
    """The live feed, in order, is pinned by digest. Every join queries the
    corpus with its rule's day bound instead of replaying CT entries, so
    what a feed line may depend on is fixed by the rules alone."""

    @pytest.fixture(params=["small_world", "streamgen_dir"])
    def world(self, request):
        world = request.getfixturevalue(request.param)
        if isinstance(world, str):
            return request.param, open_bundle(world), DEFAULT_TIMELINE.revocation_cutoff
        return request.param, world.to_bundle(), world.config.timeline.revocation_cutoff

    #: (emissions, first 16 hex digits of the feed's sha256) per world.
    EXPECTED = {
        "small_world": (722, "05f967b0aad67ee4"),
        "streamgen_dir": (595, "ce6383106562897c"),
    }

    def test_feed_digest(self, world):
        name, bundle, cutoff = world
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

        StreamEngine(bundle, revocation_cutoff_day=cutoff, on_finding=on_finding).replay()
        digest = hashlib.sha256(json.dumps(feed).encode("utf-8")).hexdigest()[:16]
        assert (len(feed), digest) == self.EXPECTED[name]

    def test_no_crl_entry_postdates_its_crl(self, world):
        """Why a key-compromise survivor's certificate is logged by the day
        its CRL delta is replayed: revocation day <= thisUpdate, and a
        survivor's notBefore <= revocation day."""
        _, bundle, _ = world
        assert bundle.crls
        assert all(
            entry.revocation_day <= crl.this_update
            for crl in bundle.crls
            for entry in crl.entries
        )
