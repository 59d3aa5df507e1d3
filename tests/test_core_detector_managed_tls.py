"""Tests for the managed-TLS departure (DNS diff x CT) pipeline (§4.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detectors.managed_tls import (
    DISAPPEARANCE_LOOKAHEAD_SCANS,
    DepartureTracker,
    ManagedTlsDetector,
    find_departures,
    is_cloudflare_delegation,
    is_cloudflare_managed_certificate,
)
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.dns.records import RecordType
from repro.dns.snapshots import DailySnapshot, DomainObservation, SnapshotStore
from repro.util.dates import day
from tests.conftest import make_cert

D1 = day(2022, 8, 1)
D2 = day(2022, 8, 2)

CF_NS = ("ada.ns.cloudflare.com", "bob.ns.cloudflare.com")


def store_with(days):
    store = SnapshotStore()
    for scan_day, observations in days.items():
        snapshot = DailySnapshot(scan_day)
        for apex, ns in observations.items():
            snapshot.observe(apex, RecordType.NS, ns)
        store.put(snapshot)
    return store


def managed_cert(domain="cust.com", serial=201, not_before=day(2022, 5, 1), lifetime=365):
    return make_cert(
        sans=(f"sni{serial}.cloudflaressl.com", domain, f"*.{domain}"),
        serial=serial,
        not_before=not_before,
        lifetime=lifetime,
        issuer="CloudFlare ECC CA-2",
    )


class TestClassifiers:
    def test_managed_certificate_detection(self):
        assert is_cloudflare_managed_certificate(managed_cert())

    def test_customer_uploaded_cert_not_managed(self):
        # A customer-uploaded certificate lacks the sni* marker SAN.
        cert = make_cert(sans=("cust.com",), serial=202)
        assert not is_cloudflare_managed_certificate(cert)

    def test_lookalike_san_not_managed(self):
        cert = make_cert(sans=("snixyz.cloudflaressl.com", "cust.com"), serial=203)
        assert not is_cloudflare_managed_certificate(cert)

    def test_delegation_patterns(self):
        assert is_cloudflare_delegation("ada.ns.cloudflare.com")
        assert is_cloudflare_delegation("foo.cdn.cloudflare.com")
        assert not is_cloudflare_delegation("ns1.elsewhere.net")
        assert not is_cloudflare_delegation("cloudflare.com")


class TestFindDepartures:
    def test_ns_change_away_is_departure(self):
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": ("ns1.other.net",)}})
        departures = find_departures(store)
        assert len(departures) == 1
        assert departures[0].apex == "cust.com"
        assert departures[0].departure_day == D2

    def test_no_change_no_departure(self):
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": CF_NS}})
        assert find_departures(store) == []

    def test_shuffle_within_cloudflare_not_departure(self):
        store = store_with(
            {
                D1: {"cust.com": CF_NS},
                D2: {"cust.com": ("carol.ns.cloudflare.com", "bob.ns.cloudflare.com")},
            }
        )
        assert find_departures(store) == []

    def test_domain_disappearance_counts(self):
        store = store_with({D1: {"cust.com": CF_NS}, D2: {}})
        departures = find_departures(store)
        assert len(departures) == 1

    def test_transient_scan_loss_not_departure(self):
        # Missing one day but back on Cloudflare the next: lookup failure.
        d3 = D2 + 1
        store = store_with({D1: {"cust.com": CF_NS}, D2: {}, d3: {"cust.com": CF_NS}})
        assert find_departures(store) == []

    def test_disappearance_confirmed_by_following_day(self):
        d3 = D2 + 1
        store = store_with({D1: {"cust.com": CF_NS}, D2: {}, d3: {}})
        departures = find_departures(store)
        assert len(departures) == 1
        assert departures[0].departure_day == D2

    def test_reappearance_elsewhere_still_departure(self):
        # Gone one day, back the next on non-Cloudflare NS: real departure.
        d3 = D2 + 1
        store = store_with(
            {D1: {"cust.com": CF_NS}, D2: {}, d3: {"cust.com": ("ns1.other.net",)}}
        )
        assert len(find_departures(store)) == 1

    def test_non_cloudflare_change_ignored(self):
        store = store_with(
            {D1: {"x.com": ("ns1.a.net",)}, D2: {"x.com": ("ns1.b.net",)}}
        )
        assert find_departures(store) == []

    def test_arrival_is_not_departure(self):
        store = store_with({D1: {"cust.com": ("ns1.old.net",)}, D2: {"cust.com": CF_NS}})
        assert find_departures(store) == []


_APEXES = ("a.com", "b.com", "c.net")
_TARGETS = (
    "ns1.x.net", "ada.ns.cloudflare.com", "bob.ns.cloudflare.com", "e.cdn.cloudflare.com",
)
_view = st.tuples(
    st.frozensets(st.sampled_from(_TARGETS), max_size=2),
    st.frozensets(st.sampled_from(_TARGETS), max_size=2),
)
_scans = st.lists(
    st.dictionaries(st.sampled_from(_APEXES), _view, max_size=3), min_size=2, max_size=7
)


def _observation(apex, view):
    ns, cname = view
    return DomainObservation(apex, {RecordType.NS.value: ns, RecordType.CNAME.value: cname})


def _oracle(scans):
    """The §4.3 rule stated pairwise: compare each scan with the next; a
    vanished apex departs unless the first of the next few scans that
    observes it finds it back on Cloudflare."""
    def on_cf(targets):
        return any(is_cloudflare_delegation(t) for t in targets)

    found = set()
    for i in range(len(scans) - 1):
        before, after = scans[i], scans[i + 1]
        for apex, (ns, cname) in before.items():
            if apex not in after:
                removed = {t for t in ns | cname if is_cloudflare_delegation(t)}
                lookahead = scans[i + 2 : i + 2 + DISAPPEARANCE_LOOKAHEAD_SCANS]
                later = [scan[apex] for scan in lookahead if apex in scan]
                if removed and not (later and on_cf(later[0][0] | later[0][1])):
                    found.add((apex, i + 1, frozenset(removed)))
                continue
            ns2, cname2 = after[apex]
            removed = {t for t in (ns - ns2) | (cname - cname2) if is_cloudflare_delegation(t)}
            if removed and not on_cf(ns2 | cname2):
                found.add((apex, i + 1, frozenset(removed)))
    return found


class TestDepartureTracker:
    @settings(max_examples=200, deadline=None)
    @given(_scans)
    def test_matches_pairwise_rule(self, scans):
        store = SnapshotStore()
        for offset, scan in enumerate(scans):
            observations = {apex: _observation(apex, view) for apex, view in scan.items()}
            store.put(DailySnapshot.from_observations(D1 + offset, observations))
        got = [(d.apex, d.departure_day - D1, d.removed_targets) for d in find_departures(store)]
        assert len(got) == len(set(got))
        assert set(got) == _oracle(scans)

    @settings(max_examples=100, deadline=None)
    @given(_scans)
    def test_interned_observations_decide_like_copies(self, scans):
        """Shared objects skip the comparison; equal copies take it."""
        interned = {}
        shared, copied = DepartureTracker(), DepartureTracker()
        for offset, scan in enumerate(scans):
            day_ = D1 + offset
            shared_obs = {
                apex: interned.setdefault((apex, view), _observation(apex, view))
                for apex, view in scan.items()
            }
            fresh_obs = {apex: _observation(apex, view) for apex, view in scan.items()}
            assert shared.observe(DailySnapshot.from_observations(day_, shared_obs)) == (
                copied.observe(DailySnapshot.from_observations(day_, fresh_obs))
            )
        assert shared.flush() == copied.flush()

    def test_pending_survives_gap_then_flush(self):
        tracker = DepartureTracker()
        present = _observation("cust.com", (frozenset(CF_NS), frozenset()))
        tracker.observe(DailySnapshot.from_observations(D1, {"cust.com": present}))
        assert tracker.observe(DailySnapshot(D2)) == []
        assert [p["apex"] for p in tracker.pending] == ["cust.com"]
        departures = tracker.flush()
        assert [(d.apex, d.departure_day) for d in departures] == [("cust.com", D2)]
        assert tracker.pending == []


class TestDetector:
    def test_departure_with_valid_managed_cert(self):
        corpus = CertificateCorpus()
        corpus.ingest([managed_cert()])
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": ("ns1.other.net",)}})
        findings = ManagedTlsDetector(corpus).detect(store)
        items = findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE)
        assert len(items) == 1
        assert items[0].affected_domain == "cust.com"
        assert items[0].invalidation_day == D2

    def test_expired_managed_cert_not_stale(self):
        corpus = CertificateCorpus()
        corpus.ingest([managed_cert(not_before=day(2020, 1, 1), lifetime=90)])
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": ("ns1.other.net",)}})
        findings = ManagedTlsDetector(corpus).detect(store)
        assert len(findings) == 0

    def test_customer_uploaded_cert_not_counted(self):
        corpus = CertificateCorpus()
        corpus.ingest([make_cert(sans=("cust.com",), serial=210,
                                 not_before=day(2022, 5, 1), lifetime=365)])
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": ("ns1.other.net",)}})
        findings = ManagedTlsDetector(corpus).detect(store)
        assert len(findings) == 0

    def test_subdomain_certificates_become_stale_with_apex(self):
        corpus = CertificateCorpus()
        corpus.ingest([managed_cert(domain="shop.cust.com", serial=211)])
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": ("ns1.other.net",)}})
        findings = ManagedTlsDetector(corpus).detect(store)
        items = findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE)
        assert [f.affected_domain for f in items] == ["shop.cust.com"]

    def test_multiple_overlapping_certs_all_stale(self):
        corpus = CertificateCorpus()
        corpus.ingest(
            [
                managed_cert(serial=220, not_before=day(2022, 1, 1)),
                managed_cert(serial=221, not_before=day(2022, 6, 1)),
            ]
        )
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": ("ns1.other.net",)}})
        findings = ManagedTlsDetector(corpus).detect(store)
        assert len(findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE)) == 2

    def test_departure_without_cert_no_finding(self):
        corpus = CertificateCorpus()
        store = store_with({D1: {"cust.com": CF_NS}, D2: {"cust.com": ("ns1.other.net",)}})
        findings = ManagedTlsDetector(corpus).detect(store)
        assert len(findings) == 0
