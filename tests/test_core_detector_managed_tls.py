"""Tests for the managed-TLS departure (DNS diff x CT) pipeline (§4.3)."""

from hypothesis import example, given, settings, strategies as st

from repro.core.detectors.managed_tls import (
    DISAPPEARANCE_LOOKAHEAD_SCANS,
    DepartureTracker,
    ManagedTlsDetector,
    is_cloudflare_managed_certificate,
)
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.dns.snapshots import cloudflare_targets, is_cloudflare_delegation
from repro.util.dates import day
from tests.conftest import Scans, find_departures, make_cert, scan_managed_join

D1 = day(2022, 8, 1)
D2 = day(2022, 8, 2)

CF_NS = ("ada.ns.cloudflare.com", "bob.ns.cloudflare.com")


def store_with(days):
    """Scans of apexes delegated to these NS names (Cloudflare ones kept)."""
    return Scans(
        {
            scan_day: {apex: cloudflare_targets(ns) for apex, ns in observations.items()}
            for scan_day, observations in days.items()
        }
    )


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
    st.dictionaries(st.sampled_from(_APEXES), _view, max_size=3), min_size=2, max_size=9
)

_ADA = frozenset({"ada.ns.cloudflare.com"})
_BOB = frozenset({"bob.ns.cloudflare.com"})
_CDN = frozenset({"e.cdn.cloudflare.com"})
_ELSEWHERE = frozenset({"ns1.x.net"})
_NONE = frozenset()
A = "a.com"


def _on_cf(targets):
    return any(is_cloudflare_delegation(t) for t in targets)


def _cloudflare_scans(scans):
    """The tracker's input: each scan's apexes with their Cloudflare targets."""
    return [
        {apex: cloudflare_targets(ns | cname) for apex, (ns, cname) in scan.items()}
        for scan in scans
    ]


def _oracle(scans):
    """The §4.3 rule stated pairwise: compare each scan with the next; a
    vanished apex departs unless the first of the next few scans that
    observes it finds it back on Cloudflare."""
    found = set()
    for i in range(len(scans) - 1):
        before, after = scans[i], scans[i + 1]
        for apex, (ns, cname) in before.items():
            if apex not in after:
                removed = {t for t in ns | cname if is_cloudflare_delegation(t)}
                lookahead = scans[i + 2 : i + 2 + DISAPPEARANCE_LOOKAHEAD_SCANS]
                later = [scan[apex] for scan in lookahead if apex in scan]
                if removed and not (later and _on_cf(later[0][0] | later[0][1])):
                    found.add((apex, i + 1, frozenset(removed)))
                continue
            ns2, cname2 = after[apex]
            removed = {t for t in (ns - ns2) | (cname - cname2) if is_cloudflare_delegation(t)}
            if removed and not _on_cf(ns2 | cname2):
                found.add((apex, i + 1, frozenset(removed)))
    return found


class _FullObservationTracker:
    """The reference: the §4.3 state machine over whole (NS, CNAME)
    observations, diffing each record type against the previous scan."""

    def __init__(self):
        self.last_view = {}
        self.pending = []

    def observe(self, scan_day, scan):
        departures, unresolved = [], []
        for apex, departure_day, removed, remaining in self.pending:
            if apex in scan:
                if not _on_cf(scan[apex][0] | scan[apex][1]):
                    departures.append((apex, departure_day, removed))
            elif remaining > 1:
                unresolved.append((apex, departure_day, removed, remaining - 1))
            else:
                departures.append((apex, departure_day, removed))
        self.pending = unresolved
        for apex, (ns, cname) in self.last_view.items():
            if apex not in scan:
                removed = frozenset(t for t in ns | cname if is_cloudflare_delegation(t))
                if removed:
                    self.pending.append(
                        (apex, scan_day, removed, DISAPPEARANCE_LOOKAHEAD_SCANS)
                    )
                continue
            ns2, cname2 = scan[apex]
            removed = frozenset(
                t for t in (ns - ns2) | (cname - cname2) if is_cloudflare_delegation(t)
            )
            if removed and not _on_cf(ns2 | cname2):
                departures.append((apex, scan_day, removed))
        self.last_view = dict(scan)
        return sorted(departures, key=lambda d: (d[1], d[0]))

    def flush(self):
        departures = [pending[:3] for pending in self.pending]
        self.pending = []
        return sorted(departures, key=lambda d: (d[1], d[0]))


def _as_tuples(departures):
    return [(d.apex, d.departure_day, d.removed_targets) for d in departures]


class TestDepartureTracker:
    @settings(max_examples=200, deadline=None)
    @given(_scans)
    def test_matches_pairwise_rule(self, scans):
        store = Scans(
            {D1 + offset: scan for offset, scan in enumerate(_cloudflare_scans(scans))}
        )
        got = [(d.apex, d.departure_day - D1, d.removed_targets) for d in find_departures(store)]
        assert len(got) == len(set(got))
        assert set(got) == _oracle(scans)

    @settings(max_examples=300, deadline=None)
    @given(scans=_scans)
    # NS <-> CNAME moves, within Cloudflare and out of it.
    @example(scans=[{A: (_ADA, _NONE)}, {A: (_NONE, _ADA)}, {A: (_CDN, _NONE)}])
    @example(scans=[{A: (_ADA, _CDN)}, {A: (_ELSEWHERE, _CDN)}, {A: (_ELSEWHERE, _NONE)}])
    # A shuffle within Cloudflare.
    @example(scans=[{A: (_ADA | _BOB, _NONE)}, {A: (_BOB, _CDN)}, {A: (_ADA, _NONE)}])
    # Gaps shorter than the lookahead: back on Cloudflare, and back elsewhere.
    @example(scans=[{A: (_ADA, _NONE)}, {}, {}, {A: (_BOB, _NONE)}])
    @example(scans=[{A: (_ADA, _NONE)}, {}, {A: (_ELSEWHERE, _NONE)}, {}])
    # Gaps longer than the lookahead, ending on and off Cloudflare.
    @example(scans=[{A: (_ADA, _NONE)}, {}, {}, {}, {}, {A: (_ADA, _NONE)}])
    @example(scans=[{A: (_NONE, _CDN)}, {}, {}, {}, {}, {}, {A: (_ELSEWHERE, _NONE)}])
    # Departs, then comes back on Cloudflare and departs again.
    @example(
        scans=[
            {A: (_ADA, _NONE)}, {A: (_ELSEWHERE, _NONE)}, {A: (_ADA, _NONE)}, {},
            {A: (_NONE, _NONE)},
        ]
    )
    def test_matches_full_observation_rule(self, scans):
        """The tracker, fed only each apex's Cloudflare targets, decides
        scan by scan exactly as the rule over whole NS/CNAME observations."""
        reference, tracker = _FullObservationTracker(), DepartureTracker()
        for offset, (scan, cloudflare) in enumerate(zip(scans, _cloudflare_scans(scans))):
            got = tracker.observe(D1 + offset, cloudflare)
            assert _as_tuples(got) == reference.observe(D1 + offset, scan)
        assert _as_tuples(tracker.flush()) == reference.flush()

    def test_pending_survives_gap_then_flush(self):
        tracker = DepartureTracker()
        tracker.observe(D1, {"cust.com": frozenset(CF_NS)})
        assert tracker.observe(D2, {}) == []
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


D3 = day(2022, 8, 3)


class TestSuffixIndex:
    """The detector visits only the names at or beneath a departed apex, in
    the order a full scan of every indexed name visits them."""

    @staticmethod
    def corpus():
        def managed(serial, *names, not_before=day(2022, 5, 1), lifetime=365):
            return make_cert(
                sans=(f"sni{serial}.cloudflaressl.com",) + names,
                serial=serial,
                not_before=not_before,
                lifetime=lifetime,
                issuer="CloudFlare ECC CA-2",
            )

        corpus = CertificateCorpus()
        corpus.ingest(
            [
                # Indexed first, so www.example.com precedes example.com.
                managed(301, "www.example.com", not_before=day(2020, 12, 1), lifetime=700),
                managed(302, "example.com", "*.example.com"),
                managed(303, "*.example.com", not_before=day(2022, 3, 1)),
                managed(304, "badexample.com", "www.badexample.com"),
                managed(305, "example.com.evil.net"),
                managed(306, "example.com", not_before=day(2021, 1, 1), lifetime=90),
                managed(307, "shop.other.org", "other.org", not_before=day(2022, 2, 1)),
                managed(308, "other.org", not_before=day(2022, 7, 1)),
                managed(309, "mail.example.com", "www.example.com"),
            ]
        )
        return corpus

    #: example.com leaves alone; other.org and evil.net leave on one day.
    SCANS = store_with(
        {
            D1: {
                apex: CF_NS
                for apex in ("example.com", "badexample.com", "evil.net", "other.org")
            },
            D2: {
                "example.com": ("ns1.other.net",),
                "badexample.com": CF_NS,
                "evil.net": CF_NS,
                "other.org": CF_NS,
            },
            D3: {
                "example.com": ("ns1.other.net",),
                "badexample.com": CF_NS,
                "evil.net": ("ns1.other.net",),
                "other.org": ("ns1.other.net",),
            },
        }
    )

    @classmethod
    def feed(cls, corpus):
        detector = ManagedTlsDetector(corpus)
        emitted = []
        for scan_day in cls.SCANS.days():
            emitted += detector.observe(scan_day, cls.SCANS.cloudflare(scan_day))
        emitted += detector.finalize()
        return [
            (f.invalidation_day, f.affected_domain, f.certificate.dedup_fingerprint())
            for f in emitted
        ]

    def test_apex_matches_itself_subdomains_and_wildcards_only(self):
        corpus = self.corpus()
        by_serial = {c.serial: c.dedup_fingerprint() for c in corpus.certificates()}
        found = {
            (domain, fingerprint)
            for found_day, domain, fingerprint in self.feed(corpus)
            if found_day == D2
        }
        assert found == {
            ("www.example.com", by_serial[301]),
            ("www.example.com", by_serial[309]),
            ("mail.example.com", by_serial[309]),
            ("example.com", by_serial[302]),
            ("example.com", by_serial[303]),  # from *.example.com
        }

    def test_emission_order_equals_a_full_scan(self, tmp_path):
        from repro.core.pipeline import DatasetBundle
        from repro.data import Dataset, write_dataset

        corpus = self.corpus()
        expected = scan_managed_join(corpus, find_departures(self.SCANS))
        assert len({found_day for found_day, _, _ in expected}) == 2
        assert self.feed(corpus) == expected
        write_dataset(DatasetBundle(corpus=corpus), str(tmp_path), rows_per_segment=4)
        with Dataset.open(str(tmp_path)) as dataset:
            assert self.feed(dataset.certs) == expected
