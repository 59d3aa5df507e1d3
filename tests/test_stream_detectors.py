"""Unit tests for the incremental calls of the three core detectors.

Each detector is exercised directly (no engine), fed CRL entries, creation
pairs and per-day Cloudflare delegations the way the stream engine feeds
it, to pin down the streaming semantics: mid-stream revisions, out-of-order creation dates and
pending-state resolution. Whole-world equivalence against batch lives in
test_stream_equivalence.py; that pending state survives a kill is checked
on the whole engine in test_stream_checkpoint.py.
"""

from repro.core.detectors import (
    KeyCompromiseDetector,
    ManagedTlsDetector,
    RegistrantChangeDetector,
)
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.revocation.crl import CrlEntry
from repro.revocation.reasons import RevocationReason
from repro.util.dates import day
from tests.conftest import make_cert

T0 = day(2021, 1, 1)
CF = frozenset({"ada.ns.cloudflare.com", "bob.ns.cloudflare.com"})
#: Observed, with no Cloudflare NS or CNAME target.
OFF = frozenset()
AKID = "akid-test"


def corpus_of(*certs):
    corpus = CertificateCorpus()
    corpus.ingest(certs)
    return corpus


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
        corpus = corpus_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = KeyCompromiseDetector(corpus)
        emitted = detector.add_crl(
            AKID, [CrlEntry(1, T0 + 30, RevocationReason.KEY_COMPROMISE)]
        )
        assert sorted(f.staleness_class.value for f in emitted) == [
            "key_compromise", "revoked_all",
        ]
        assert all(f.invalidation_day == T0 + 30 for f in emitted)

    def test_earlier_republication_revises_finding(self):
        corpus = corpus_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = KeyCompromiseDetector(corpus)
        detector.add_crl(AKID, [CrlEntry(1, T0 + 60)])
        revised = detector.add_crl(AKID, [CrlEntry(1, T0 + 20)])
        assert [f.invalidation_day for f in revised] == [T0 + 20]
        # Converged view holds only the revised finding.
        assert [f.invalidation_day for f in detector.findings()] == [T0 + 20]

    def test_later_republication_ignored(self):
        corpus = corpus_of(make_cert(sans=("kc.com",), serial=1, not_before=T0))
        detector = KeyCompromiseDetector(corpus)
        detector.add_crl(AKID, [CrlEntry(1, T0 + 20)])
        assert detector.add_crl(AKID, [CrlEntry(1, T0 + 60)]) == []

    def test_filters_and_stats_match_batch_semantics(self):
        cutoff = T0 + 10
        ok = make_cert(sans=("ok.com",), serial=1, not_before=T0, lifetime=100)
        early = make_cert(sans=("early.com",), serial=2, not_before=T0 + 50)
        expired = make_cert(sans=("expired.com",), serial=3, not_before=T0, lifetime=30)
        detector = KeyCompromiseDetector(
            corpus_of(ok, early, expired), revocation_cutoff_day=cutoff
        )
        detector.add_crl(
            AKID,
            [
                CrlEntry(1, T0 + 20),   # survives
                CrlEntry(2, T0 + 20),   # revoked before notBefore
                CrlEntry(3, T0 + 60),   # revoked after notAfter
                CrlEntry(99, T0 + 20),  # no certificate in CT
            ],
        )
        stats = detector.stats
        assert stats.crl_entries_merged == 4
        assert stats.matched_in_ct == 3
        assert stats.unmatched == 1
        assert stats.filtered_revoked_before_valid == 1
        assert stats.filtered_revoked_after_expiration == 1
        assert stats.survivors == 1
        assert len(detector.findings()) == 1


class TestIncrementalRegistrantChange:
    def test_second_creation_date_emits(self):
        detector = RegistrantChangeDetector(
            corpus_of(make_cert(sans=("re.com",), not_before=T0, lifetime=365))
        )
        assert detector.add_creation("re.com", T0 - 100) == []
        emitted = detector.add_creation("re.com", T0 + 50)
        assert len(emitted) == 1
        finding = emitted[0]
        assert finding.staleness_class is StalenessClass.REGISTRANT_CHANGE
        assert finding.invalidation_day == T0 + 50
        assert finding.detail == f"re_registered_after={T0 - 100}"

    def test_duplicate_crawl_observation_ignored(self):
        detector = RegistrantChangeDetector(
            corpus_of(make_cert(sans=("re.com",), not_before=T0))
        )
        detector.add_creation("re.com", T0 - 100)
        detector.add_creation("re.com", T0 + 50)
        assert detector.add_creation("re.com", T0 + 50) == []
        assert len(detector.findings()) == 1

    def test_tld_filter(self):
        detector = RegistrantChangeDetector(
            corpus_of(make_cert(sans=("re.org",), not_before=T0)), tlds=("com",)
        )
        detector.add_creation("re.org", T0 - 100)
        assert detector.add_creation("re.org", T0 + 50) == []

    def test_cert_must_strictly_span_creation_day(self):
        detector = RegistrantChangeDetector(
            corpus_of(make_cert(sans=("re.com",), not_before=T0, lifetime=50))
        )
        detector.add_creation("re.com", T0 - 100)
        # creation exactly at notAfter: not strictly inside.
        assert detector.add_creation("re.com", T0 + 50) == []

    def test_out_of_order_arrival_revises_detail(self):
        detector = RegistrantChangeDetector(
            corpus_of(make_cert(sans=("re.com",), not_before=T0 - 400, lifetime=800))
        )
        detector.add_creation("re.com", T0 - 300)
        detector.add_creation("re.com", T0 + 50)
        # A late crawl surfaces a middle date: the T0+50 pair's previous day
        # changes, and a new re-registration at T0-100 appears.
        emitted = detector.add_creation("re.com", T0 - 100)
        days = sorted((f.invalidation_day, f.detail) for f in detector.findings())
        assert days == [
            (T0 - 100, f"re_registered_after={T0 - 300}"),
            (T0 + 50, f"re_registered_after={T0 - 100}"),
        ]
        assert len(emitted) == 2  # revision + new event


class TestIncrementalManagedTls:
    def test_delegation_loss_emits_departure(self):
        detector = ManagedTlsDetector(corpus_of(managed_cert("cust.com")))
        detector.observe(T0, {"cust.com": CF})
        emitted = detector.observe(T0 + 1, {"cust.com": OFF})
        assert len(emitted) == 1  # apex and wildcard share the FQDN "cust.com"
        finding = emitted[0]
        assert finding.affected_domain == "cust.com"
        assert finding.invalidation_day == T0 + 1
        assert finding.staleness_class is StalenessClass.MANAGED_TLS_DEPARTURE
        assert finding.detail == "left=ada.ns.cloudflare.com,bob.ns.cloudflare.com"

    def test_shuffle_within_cloudflare_not_departure(self):
        detector = ManagedTlsDetector(corpus_of(managed_cert("cust.com")))
        detector.observe(T0, {"cust.com": CF})
        emitted = detector.observe(
            T0 + 1, {"cust.com": frozenset({"carol.ns.cloudflare.com"})}
        )
        assert emitted == []

    def test_disappearance_confirmed_by_reobservation_elsewhere(self):
        detector = ManagedTlsDetector(corpus_of(managed_cert("cust.com")))
        detector.observe(T0, {"cust.com": CF})
        assert detector.observe(T0 + 1, {}) == []
        assert detector.pending_departures() == 1
        emitted = detector.observe(T0 + 2, {"cust.com": OFF})
        assert emitted  # confirmed: departed on the disappearance day
        assert all(f.invalidation_day == T0 + 1 for f in emitted)
        assert detector.pending_departures() == 0

    def test_disappearance_reappearing_on_cloudflare_is_scan_loss(self):
        detector = ManagedTlsDetector(corpus_of(managed_cert("cust.com")))
        detector.observe(T0, {"cust.com": CF})
        detector.observe(T0 + 1, {})
        emitted = detector.observe(T0 + 2, {"cust.com": CF})
        assert emitted == []
        assert detector.pending_departures() == 0
        assert detector.findings() == []

    def test_lookahead_exhaustion_confirms_departure(self):
        detector = ManagedTlsDetector(corpus_of(managed_cert("cust.com")))
        detector.observe(T0, {"cust.com": CF})
        emitted = []
        for offset in range(1, 5):
            emitted.extend(detector.observe(T0 + offset, {}))
        assert emitted  # three unobserved scans exhaust the lookahead
        assert all(f.invalidation_day == T0 + 1 for f in emitted)

    def test_finalize_flushes_pendings(self):
        detector = ManagedTlsDetector(corpus_of(managed_cert("cust.com")))
        detector.observe(T0, {"cust.com": CF})
        detector.observe(T0 + 1, {})
        assert detector.pending_departures() == 1
        emitted = detector.finalize()
        assert emitted
        assert detector.pending_departures() == 0

    def test_expired_cert_not_joined(self):
        detector = ManagedTlsDetector(
            corpus_of(managed_cert("cust.com", not_before=T0 - 400, lifetime=100))
        )
        detector.observe(T0, {"cust.com": CF})
        emitted = detector.observe(T0 + 1, {"cust.com": OFF})
        assert emitted == []
