"""Failure-injection integration tests.

Measurement infrastructure fails in practice: CRL endpoints block, DNS
lookups time out, scan days go missing. These tests verify the pipeline
degrades the way the paper's did — losing coverage, not correctness.
"""

import pytest

from repro.core.detectors.key_compromise import KeyCompromiseDetector
from repro.core.detectors.managed_tls import ManagedTlsDetector
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.dns.snapshots import cloudflare_targets
from repro.ecosystem import WorldConfig, WorldSimulator
from repro.ecosystem.events import GroundTruthEventType
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.revocation.reasons import RevocationReason
from repro.util.dates import day
from tests.conftest import Scans, find_departures, make_cert

T0 = day(2022, 8, 1)
CF_NS = ("ada.ns.cloudflare.com", "bob.ns.cloudflare.com")


class TestCrlOutages:
    def _cert(self):
        return make_cert(sans=("kc.com",), serial=1, authority_key_id="akid-f",
                         not_before=T0 - 100, lifetime=365)

    def _crl(self, update_day):
        crl = CertificateRevocationList(
            issuer_name="F CA", authority_key_id="akid-f",
            this_update=update_day, next_update=update_day + 7, crl_number=1,
        )
        crl.add(CrlEntry(1, T0, RevocationReason.KEY_COMPROMISE))
        return crl

    def test_missing_fetch_days_do_not_lose_revocations(self):
        """A revocation present in ANY surviving daily CRL is detected."""
        corpus = CertificateCorpus()
        corpus.ingest([self._cert()])
        # Only 2 of 30 daily fetches succeeded.
        crls = [self._crl(T0 + 3), self._crl(T0 + 27)]
        findings = KeyCompromiseDetector(corpus).detect(crls)
        assert len(findings.of_class(StalenessClass.KEY_COMPROMISE)) == 1

    def test_total_outage_yields_no_findings_not_errors(self):
        corpus = CertificateCorpus()
        corpus.ingest([self._cert()])
        findings = KeyCompromiseDetector(corpus).detect([])
        assert len(findings) == 0


class TestScanGaps:
    def _store(self, days):
        return Scans(
            {
                scan_day: {apex: cloudflare_targets(ns) for apex, ns in observations.items()}
                for scan_day, observations in days.items()
            }
        )

    def test_missing_scan_days_still_yield_departure(self):
        """A three-day scanner outage spanning the change: the diff between
        the surviving neighbors still shows the departure."""
        store = self._store(
            {
                T0: {"cust.com": CF_NS},
                T0 + 4: {"cust.com": ("ns1.other.net",)},  # days 1-3 lost
            }
        )
        departures = find_departures(store)
        assert len(departures) == 1
        assert departures[0].departure_day == T0 + 4

    def test_departure_and_return_within_gap_is_missed(self):
        """Fundamental limit: leaving and returning entirely inside an
        outage window is invisible (a known undercount, like the paper's)."""
        store = self._store(
            {
                T0: {"cust.com": CF_NS},
                T0 + 4: {"cust.com": CF_NS},  # left on day 1, back on day 3
            }
        )
        assert find_departures(store) == []


class TestEndToEndScanLoss:
    def test_lossy_scans_do_not_flood_false_departures(self):
        """With 5% per-domain daily scan loss, the neighbor-confirmation
        rule keeps managed-TLS findings anchored to real events."""
        config = WorldConfig(seed=31).scaled(0.05)
        from dataclasses import replace

        lossy = replace(config, dns_scan_loss_rate=0.05)
        world = WorldSimulator(lossy).run()
        detector = ManagedTlsDetector(world.corpus)
        findings = detector.detect(world.dns_snapshots)
        timeline = world.config.timeline
        true_changes = {
            e.domain
            for e in world.ground_truth
            if e.event_type in (
                GroundTruthEventType.MANAGED_TLS_DEPARTED,
                GroundTruthEventType.DOMAIN_EXPIRED_LAPSED,
            )
            and timeline.dns_scan_start < e.day <= timeline.dns_scan_end + 1
        }
        from repro.psl.registered import e2ld

        detected = {
            e2ld(f.affected_domain)
            for f in findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE)
        }
        false_positives = detected - true_changes
        # Transient losses must not manufacture departures wholesale.
        assert len(false_positives) <= max(2, len(detected) // 4)
