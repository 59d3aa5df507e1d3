"""Unit tests for the incremental detector wrappers.

Each class is exercised directly (no engine) to pin down the streaming
semantics: retroactive joins, mid-stream revisions, pending-state
resolution, and checkpoint round-trips. Whole-world equivalence against the
batch detectors lives in test_stream_equivalence.py.
"""

import pytest

from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.dns.records import RecordType
from repro.dns.snapshots import DailySnapshot
from repro.revocation.crl import CrlEntry
from repro.revocation.reasons import RevocationReason
from repro.stream import (
    IncrementalKeyCompromiseDetector,
    IncrementalManagedTlsDetector,
    IncrementalRegistrantChangeDetector,
)
from repro.stream.events import CrlDeltaPublished, DnsSnapshotTaken, WhoisCreationObserved
from repro.util.dates import day
from tests.conftest import make_cert

T0 = day(2021, 1, 1)
CF_NS = ("ada.ns.cloudflare.com", "bob.ns.cloudflare.com")


def rows_of(*certs):
    """A corpus over *certs* and one key row per certificate, in order."""
    corpus = CertificateCorpus()
    corpus.ingest(certs)
    return corpus, list(corpus.key_rows())


def crl_delta(entries, akid="akid-test", on_day=None):
    return CrlDeltaPublished(
        day=on_day if on_day is not None else T0,
        issuer_name="CA",
        authority_key_id=akid,
        entries=tuple(entries),
    )


def whois(domain, creation_day):
    return WhoisCreationObserved(day=creation_day, domain=domain, creation_day=creation_day)


def snapshot_event(scan_day, observations):
    snapshot = DailySnapshot(scan_day)
    for apex, by_type in observations.items():
        for rtype, values in by_type.items():
            snapshot.observe(apex, rtype, values)
    return DnsSnapshotTaken(day=scan_day, snapshot=snapshot)


def managed_cert(domain="cust.com", serial=301, not_before=day(2020, 6, 1), lifetime=730):
    return make_cert(
        sans=(f"sni{serial}.cloudflaressl.com", domain, f"*.{domain}"),
        serial=serial,
        not_before=not_before,
        lifetime=lifetime,
        issuer="CloudFlare ECC CA-2",
    )


class TestIncrementalKeyCompromise:
    def test_cert_then_revocation_emits_both_classes(self):
        corpus, (row,) = rows_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = IncrementalKeyCompromiseDetector(corpus)
        assert detector.register(row) == []
        emitted = detector.handle_crl_delta(
            crl_delta([CrlEntry(1, T0 + 30, RevocationReason.KEY_COMPROMISE)])
        )
        assert sorted(f.staleness_class.value for f in emitted) == [
            "key_compromise", "revoked_all",
        ]
        assert all(f.invalidation_day == T0 + 30 for f in emitted)

    def test_revocation_before_cert_joins_retroactively(self):
        corpus, (row,) = rows_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = IncrementalKeyCompromiseDetector(corpus)
        emitted = detector.handle_crl_delta(
            crl_delta([CrlEntry(1, T0 + 30, RevocationReason.SUPERSEDED)])
        )
        assert emitted == []
        assert len(detector.pending_revocations()) == 1
        emitted = detector.register(row)
        assert [f.staleness_class for f in emitted] == [StalenessClass.REVOKED_ALL]
        assert detector.pending_revocations() == {}

    def test_earlier_republication_revises_finding(self):
        corpus, (row,) = rows_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = IncrementalKeyCompromiseDetector(corpus)
        detector.register(row)
        detector.handle_crl_delta(crl_delta([CrlEntry(1, T0 + 60)]))
        revised = detector.handle_crl_delta(crl_delta([CrlEntry(1, T0 + 20)]))
        assert [f.invalidation_day for f in revised] == [T0 + 20]
        # Converged view holds only the revised finding.
        assert [f.invalidation_day for f in detector.findings()] == [T0 + 20]

    def test_later_republication_ignored(self):
        corpus, (row,) = rows_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = IncrementalKeyCompromiseDetector(corpus)
        detector.register(row)
        detector.handle_crl_delta(crl_delta([CrlEntry(1, T0 + 20)]))
        assert detector.handle_crl_delta(crl_delta([CrlEntry(1, T0 + 60)])) == []

    def test_filters_and_stats_match_batch_semantics(self):
        cutoff = T0 + 10
        ok = make_cert(sans=("ok.com",), serial=1, not_before=T0, lifetime=100)
        early = make_cert(sans=("early.com",), serial=2, not_before=T0 + 50)
        expired = make_cert(sans=("expired.com",), serial=3, not_before=T0, lifetime=30)
        corpus, rows = rows_of(ok, early, expired)
        detector = IncrementalKeyCompromiseDetector(corpus, revocation_cutoff_day=cutoff)
        for row in rows:
            detector.register(row)
        detector.handle_crl_delta(
            crl_delta(
                [
                    CrlEntry(1, T0 + 20),   # survives
                    CrlEntry(2, T0 + 20),   # revoked before notBefore
                    CrlEntry(3, T0 + 60),   # revoked after notAfter
                    CrlEntry(99, T0 + 20),  # no certificate in CT
                ]
            )
        )
        stats = detector.stats
        assert stats.crl_entries_merged == 4
        assert stats.matched_in_ct == 3
        assert stats.unmatched == 1
        assert stats.filtered_revoked_before_valid == 1
        assert stats.filtered_revoked_after_expiration == 1
        assert stats.survivors == 1
        assert len(detector.findings()) == 1

    def test_checkpoint_roundtrip_rebuilds_findings(self):
        corpus, (row,) = rows_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = IncrementalKeyCompromiseDetector(corpus)
        detector.register(row)
        detector.handle_crl_delta(
            crl_delta([CrlEntry(1, T0 + 30, RevocationReason.KEY_COMPROMISE)])
        )
        state = detector.checkpoint_state()

        restored = IncrementalKeyCompromiseDetector(corpus)
        restored.restore_state(state)
        assert restored.findings() == []  # certs not re-ingested yet
        restored.register(row)
        assert {f.staleness_class for f in restored.findings()} == {
            StalenessClass.REVOKED_ALL, StalenessClass.KEY_COMPROMISE,
        }


class TestIncrementalRegistrantChange:
    def test_second_creation_date_emits(self):
        corpus, (row,) = rows_of(make_cert(sans=("re.com",), not_before=T0, lifetime=365))
        detector = IncrementalRegistrantChangeDetector(corpus)
        detector.register(row)
        assert detector.handle_whois(whois("re.com", T0 - 100)) == []
        emitted = detector.handle_whois(whois("re.com", T0 + 50))
        assert len(emitted) == 1
        finding = emitted[0]
        assert finding.staleness_class is StalenessClass.REGISTRANT_CHANGE
        assert finding.invalidation_day == T0 + 50
        assert finding.detail == f"re_registered_after={T0 - 100}"

    def test_duplicate_crawl_observation_ignored(self):
        corpus, (row,) = rows_of(make_cert(sans=("re.com",), not_before=T0))
        detector = IncrementalRegistrantChangeDetector(corpus)
        detector.register(row)
        detector.handle_whois(whois("re.com", T0 - 100))
        detector.handle_whois(whois("re.com", T0 + 50))
        assert detector.handle_whois(whois("re.com", T0 + 50)) == []
        assert len(detector.findings()) == 1

    def test_tld_filter(self):
        corpus, (row,) = rows_of(make_cert(sans=("re.org",), not_before=T0))
        detector = IncrementalRegistrantChangeDetector(corpus, tlds=("com",))
        detector.register(row)
        detector.handle_whois(whois("re.org", T0 - 100))
        assert detector.handle_whois(whois("re.org", T0 + 50)) == []

    def test_cert_must_strictly_span_creation_day(self):
        corpus, (row,) = rows_of(make_cert(sans=("re.com",), not_before=T0, lifetime=50))
        detector = IncrementalRegistrantChangeDetector(corpus)
        detector.register(row)
        detector.handle_whois(whois("re.com", T0 - 100))
        # creation exactly at notAfter: not strictly inside.
        assert detector.handle_whois(whois("re.com", T0 + 50)) == []

    def test_out_of_order_arrival_revises_detail(self):
        corpus, (row,) = rows_of(
            make_cert(sans=("re.com",), not_before=T0 - 400, lifetime=800)
        )
        detector = IncrementalRegistrantChangeDetector(corpus)
        detector.register(row)
        detector.handle_whois(whois("re.com", T0 - 300))
        detector.handle_whois(whois("re.com", T0 + 50))
        # A late crawl surfaces a middle date: the T0+50 pair's previous day
        # changes, and a new re-registration at T0-100 appears.
        emitted = detector.handle_whois(whois("re.com", T0 - 100))
        days = sorted((f.invalidation_day, f.detail) for f in detector.findings())
        assert days == [
            (T0 - 100, f"re_registered_after={T0 - 300}"),
            (T0 + 50, f"re_registered_after={T0 - 100}"),
        ]
        assert len(emitted) == 2  # revision + new event

    def test_checkpoint_roundtrip(self):
        corpus, (row,) = rows_of(make_cert(sans=("re.com",), not_before=T0))
        detector = IncrementalRegistrantChangeDetector(corpus)
        detector.register(row)
        detector.handle_whois(whois("re.com", T0 - 100))
        detector.handle_whois(whois("re.com", T0 + 50))
        state = detector.checkpoint_state()

        restored = IncrementalRegistrantChangeDetector(corpus)
        restored.restore_state(state)
        restored.register(row)
        restored.rebuild_findings()
        assert [f.invalidation_day for f in restored.findings()] == [T0 + 50]


class TestIncrementalManagedTls:
    def test_delegation_loss_emits_departure(self):
        corpus, (row,) = rows_of(managed_cert("cust.com"))
        detector = IncrementalManagedTlsDetector(corpus)
        detector.register(row)
        detector.handle_snapshot(snapshot_event(T0, {"cust.com": {RecordType.NS: CF_NS}}))
        emitted = detector.handle_snapshot(
            snapshot_event(T0 + 1, {"cust.com": {RecordType.NS: ("ns1.other.net",)}})
        )
        assert len(emitted) == 1  # apex and wildcard share the FQDN "cust.com"
        finding = emitted[0]
        assert finding.affected_domain == "cust.com"
        assert finding.invalidation_day == T0 + 1
        assert finding.staleness_class is StalenessClass.MANAGED_TLS_DEPARTURE
        assert finding.detail == "left=ada.ns.cloudflare.com,bob.ns.cloudflare.com"

    def test_shuffle_within_cloudflare_not_departure(self):
        corpus, (row,) = rows_of(managed_cert("cust.com"))
        detector = IncrementalManagedTlsDetector(corpus)
        detector.register(row)
        detector.handle_snapshot(snapshot_event(T0, {"cust.com": {RecordType.NS: CF_NS}}))
        emitted = detector.handle_snapshot(
            snapshot_event(
                T0 + 1,
                {"cust.com": {RecordType.NS: ("carol.ns.cloudflare.com",)}},
            )
        )
        assert emitted == []

    def test_disappearance_confirmed_by_reobservation_elsewhere(self):
        corpus, (row,) = rows_of(managed_cert("cust.com"))
        detector = IncrementalManagedTlsDetector(corpus)
        detector.register(row)
        detector.handle_snapshot(snapshot_event(T0, {"cust.com": {RecordType.NS: CF_NS}}))
        assert detector.handle_snapshot(snapshot_event(T0 + 1, {})) == []
        assert detector.pending_departures() == 1
        emitted = detector.handle_snapshot(
            snapshot_event(T0 + 2, {"cust.com": {RecordType.NS: ("ns1.other.net",)}})
        )
        assert emitted  # confirmed: departed on the disappearance day
        assert all(f.invalidation_day == T0 + 1 for f in emitted)
        assert detector.pending_departures() == 0

    def test_disappearance_reappearing_on_cloudflare_is_scan_loss(self):
        corpus, (row,) = rows_of(managed_cert("cust.com"))
        detector = IncrementalManagedTlsDetector(corpus)
        detector.register(row)
        detector.handle_snapshot(snapshot_event(T0, {"cust.com": {RecordType.NS: CF_NS}}))
        detector.handle_snapshot(snapshot_event(T0 + 1, {}))
        emitted = detector.handle_snapshot(
            snapshot_event(T0 + 2, {"cust.com": {RecordType.NS: CF_NS}})
        )
        assert emitted == []
        assert detector.pending_departures() == 0
        assert detector.findings() == []

    def test_lookahead_exhaustion_confirms_departure(self):
        corpus, (row,) = rows_of(managed_cert("cust.com"))
        detector = IncrementalManagedTlsDetector(corpus)
        detector.register(row)
        detector.handle_snapshot(snapshot_event(T0, {"cust.com": {RecordType.NS: CF_NS}}))
        emitted = []
        for offset in range(1, 5):
            emitted.extend(detector.handle_snapshot(snapshot_event(T0 + offset, {})))
        assert emitted  # three unobserved scans exhaust the lookahead
        assert all(f.invalidation_day == T0 + 1 for f in emitted)

    def test_finalize_flushes_pendings(self):
        corpus, (row,) = rows_of(managed_cert("cust.com"))
        detector = IncrementalManagedTlsDetector(corpus)
        detector.register(row)
        detector.handle_snapshot(snapshot_event(T0, {"cust.com": {RecordType.NS: CF_NS}}))
        detector.handle_snapshot(snapshot_event(T0 + 1, {}))
        assert detector.pending_departures() == 1
        emitted = detector.finalize()
        assert emitted
        assert detector.pending_departures() == 0

    def test_expired_cert_not_joined(self):
        corpus, (row,) = rows_of(
            managed_cert("cust.com", not_before=T0 - 400, lifetime=100)
        )
        detector = IncrementalManagedTlsDetector(corpus)
        detector.register(row)
        detector.handle_snapshot(snapshot_event(T0, {"cust.com": {RecordType.NS: CF_NS}}))
        emitted = detector.handle_snapshot(
            snapshot_event(T0 + 1, {"cust.com": {RecordType.NS: ("ns1.other.net",)}})
        )
        assert emitted == []

    def test_checkpoint_roundtrip_preserves_pendings_and_findings(self):
        cert = managed_cert("gone.com")
        still_cert = managed_cert("still.com", serial=302)
        corpus, rows = rows_of(cert, still_cert)
        detector = IncrementalManagedTlsDetector(corpus)
        for row in rows:
            detector.register(row)
        detector.handle_snapshot(
            snapshot_event(
                T0,
                {
                    "gone.com": {RecordType.NS: CF_NS},
                    "still.com": {RecordType.NS: CF_NS},
                },
            )
        )
        detector.handle_snapshot(
            snapshot_event(
                T0 + 1,
                {
                    "gone.com": {RecordType.NS: ("ns1.other.net",)},
                    # still.com unobserved: becomes a pending disappearance
                },
            )
        )
        assert detector.pending_departures() == 1
        state = detector.checkpoint_state()

        by_fingerprint = {c.dedup_fingerprint(): c for c in (cert, still_cert)}
        restored = IncrementalManagedTlsDetector(corpus)
        restored.restore_state(state, by_fingerprint.__getitem__)
        # The engine re-ingests the CT prefix after restore; mirror that.
        for row in rows:
            restored.register(row)
        assert restored.pending_departures() == 1
        assert sorted(f.affected_domain for f in restored.findings()) == sorted(
            f.affected_domain for f in detector.findings()
        )
        # The restored pending resolves identically.
        assert restored.finalize()
