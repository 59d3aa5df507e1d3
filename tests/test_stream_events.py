"""Tests for stream event types, ordering, the bus, and the stream builder."""

import pytest

from repro.core.stale import StaleCertificate, StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.core.pipeline import DatasetBundle
from repro.data import Dataset, open_bundle, write_dataset
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.revocation.reasons import RevocationReason
from repro.stream import (
    CrlDeltaPublished,
    DnsSnapshotTaken,
    EventBus,
    Event,
    EventType,
    StaleFindingEmitted,
    StreamEngine,
    StreamStats,
    WhoisCreationObserved,
    build_event_stream,
)
from repro.dns.snapshots import DailySnapshot, SnapshotStore
from repro.util.dates import day
from tests.conftest import make_cert

T0 = day(2021, 1, 1)


def _bundle(certs=(), crls=(), whois=(), snapshots=None):
    corpus = CertificateCorpus()
    corpus.ingest(certs)
    return DatasetBundle(
        corpus=corpus.finalize(),
        crls=list(crls),
        whois_creation_pairs=list(whois),
        dns_snapshots=snapshots,
    )


class TestOrdering:
    def test_same_day_dispatch_priority(self):
        events = [
            DnsSnapshotTaken(day=T0, snapshot=DailySnapshot(T0)),
            WhoisCreationObserved(day=T0, domain="a.com", creation_day=T0),
            CrlDeltaPublished(day=T0, authority_key_id="akid"),
        ]
        ordered = sorted(events, key=lambda e: e.sort_key())
        assert [e.event_type for e in ordered] == [
            EventType.CRL_DELTA_PUBLISHED,
            EventType.WHOIS_CREATION_OBSERVED,
            EventType.DNS_SNAPSHOT_TAKEN,
        ]

    def test_day_dominates_priority(self):
        late_crl = CrlDeltaPublished(day=T0 + 1, authority_key_id="akid")
        early_dns = DnsSnapshotTaken(day=T0, snapshot=DailySnapshot(T0))
        assert early_dns.sort_key() < late_crl.sort_key()

    def test_sequence_breaks_ties(self):
        first = WhoisCreationObserved(day=T0, sequence=0, domain="a.com", creation_day=T0)
        second = WhoisCreationObserved(day=T0, sequence=1, domain="b.com", creation_day=T0)
        assert first.sort_key() < second.sort_key()


class TestEventBus:
    def test_fifo_dispatch(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EventType.WHOIS_CREATION_OBSERVED, lambda e: seen.append(e.domain))
        bus.publish_all(
            WhoisCreationObserved(day=T0, sequence=i, domain=f"d{i}.com", creation_day=T0)
            for i in range(3)
        )
        assert bus.queue_depth == 3
        assert bus.drain() == 3
        assert seen == ["d0.com", "d1.com", "d2.com"]
        assert bus.queue_depth == 0

    def test_handlers_may_publish_while_draining(self):
        bus = EventBus()
        finding = StaleCertificate(
            certificate=make_cert(),
            staleness_class=StalenessClass.REVOKED_ALL,
            invalidation_day=T0,
        )
        seen = []

        def on_whois(event):
            bus.publish(StaleFindingEmitted(day=event.day, finding=finding))

        bus.subscribe(EventType.WHOIS_CREATION_OBSERVED, on_whois)
        bus.subscribe(EventType.STALE_FINDING, lambda e: seen.append(e.finding))
        bus.publish(WhoisCreationObserved(day=T0, domain="a.com", creation_day=T0))
        assert bus.drain() == 2
        assert seen == [finding]

    def test_stats_tap_counts_and_depth(self):
        stats = StreamStats()
        bus = EventBus(stats)
        bus.subscribe(EventType.DNS_SNAPSHOT_TAKEN, lambda e: None)
        bus.publish(DnsSnapshotTaken(day=T0, snapshot=DailySnapshot(T0)))
        bus.publish(DnsSnapshotTaken(day=T0 + 1, snapshot=DailySnapshot(T0 + 1)))
        bus.drain()
        assert stats.events_by_type == {EventType.DNS_SNAPSHOT_TAKEN.value: 2}
        assert stats.max_queue_depth == 2
        assert stats.events_total == 2
        assert stats.mean_latency_ms(EventType.DNS_SNAPSHOT_TAKEN.value) >= 0.0


class TestBuildEventStream:
    def test_ct_entries_are_not_events(self):
        certs = [make_cert(not_before=T0 + offset) for offset in (30, 0, 10)]
        assert build_event_stream(_bundle(certs=certs)) == []

    def test_crl_republication_compacted(self):
        entry = CrlEntry(serial=1, revocation_day=T0 + 5, reason=RevocationReason.KEY_COMPROMISE)
        crls = [
            CertificateRevocationList(
                issuer_name="CA", authority_key_id="akid", this_update=T0 + 5 + i,
                next_update=T0 + 6 + i, crl_number=i, entries=[entry],
            )
            for i in range(4)
        ]
        events = build_event_stream(_bundle(crls=crls))
        deltas = [e for e in events if isinstance(e, CrlDeltaPublished)]
        assert len(deltas) == 1  # three republications carried nothing new
        assert deltas[0].entries == (entry,)

    def test_crl_earlier_day_republication_re_emitted(self):
        crls = [
            CertificateRevocationList(
                issuer_name="CA", authority_key_id="akid", this_update=T0,
                next_update=T0 + 1, crl_number=0,
                entries=[CrlEntry(serial=1, revocation_day=T0)],
            ),
            CertificateRevocationList(
                issuer_name="CA", authority_key_id="akid", this_update=T0 + 1,
                next_update=T0 + 2, crl_number=1,
                entries=[CrlEntry(serial=1, revocation_day=T0 - 10)],
            ),
        ]
        deltas = [
            e for e in build_event_stream(_bundle(crls=crls))
            if isinstance(e, CrlDeltaPublished)
        ]
        assert len(deltas) == 2  # the glitch improves the revocation day
        assert deltas[1].entries[0].revocation_day == T0 - 10

    def test_whois_pairs_deduplicated(self):
        whois = [("a.com", T0), ("a.com", T0), ("a.com", T0 + 9), ("b.com", T0)]
        events = [
            e for e in build_event_stream(_bundle(whois=whois))
            if isinstance(e, WhoisCreationObserved)
        ]
        assert len(events) == 3
        assert all(e.day == e.creation_day for e in events)

    def test_single_snapshot_produces_no_dns_events(self):
        store = SnapshotStore()
        store.put(DailySnapshot(T0))
        events = build_event_stream(_bundle(snapshots=store))
        assert events == []

    def test_repr_mentions_iso_day(self):
        event = WhoisCreationObserved(day=day(2021, 6, 15), domain="a.com", creation_day=T0)
        assert "2021-06-15" in repr(event)


class TestStatedOrder:
    """The replay order is a contract: the k-way merge equals a full sort
    by ``Event.sort_key``, and a bundle and its written copy feed the same
    findings in the same order."""

    @pytest.fixture(params=["small_world", "streamgen_dir"])
    def world_bundle(self, request):
        world = request.getfixturevalue(request.param)
        return open_bundle(world) if isinstance(world, str) else world.to_bundle()

    def test_merge_equals_full_sort(self, world_bundle):
        events = build_event_stream(world_bundle)
        assert events == sorted(events, key=Event.sort_key)

    def test_written_copy_feeds_the_same_findings(self, small_world, tmp_path):
        """The WHOIS and DNS days survive ``write_dataset``, so the
        registrant-change and managed-TLS feed is equal element by element.
        The revocations table keeps each entry once, not the CRL series
        (every rebuilt CRL carries the last revocation day), so revocation
        findings are compared as a set."""
        cutoff = small_world.config.timeline.revocation_cutoff
        revocation = {StalenessClass.REVOKED_ALL.value, StalenessClass.KEY_COMPROMISE.value}

        def feed(bundle):
            fed = []
            StreamEngine(
                bundle,
                revocation_cutoff_day=cutoff,
                on_finding=lambda event: fed.append(
                    (
                        event.day,
                        event.finding.staleness_class.value,
                        event.finding.certificate.dedup_fingerprint(),
                        event.finding.affected_domain,
                    )
                ),
            ).replay()
            return (
                [entry for entry in fed if entry[1] not in revocation],
                sorted(entry[1:] for entry in fed if entry[1] in revocation),
            )

        bundle = small_world.to_bundle()
        write_dataset(bundle, str(tmp_path / "copy"))
        with Dataset.open(str(tmp_path / "copy")) as dataset:
            written = feed(dataset.to_bundle())
        in_memory = feed(bundle)
        assert all(in_memory)
        assert written == in_memory
