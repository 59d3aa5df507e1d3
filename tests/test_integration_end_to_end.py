"""End-to-end integration: simulated world -> pipeline -> paper claims.

These tests assert the paper's *qualitative* findings hold on the simulated
datasets — who wins, by roughly what factor, and where the crossovers fall —
rather than absolute internet-scale counts.
"""

import pytest

from repro import LifetimePolicySimulator, MeasurementPipeline, StalenessClass
from repro.core.detectors.registrant_change import find_re_registrations
from repro.ecosystem.events import GroundTruthEventType
from repro.util.stats import median


class TestPipelineRuns:
    def test_all_four_measured_classes_detected(self, pipeline_result):
        for cls in (
            StalenessClass.REVOKED_ALL,
            StalenessClass.KEY_COMPROMISE,
            StalenessClass.REGISTRANT_CHANGE,
            StalenessClass.MANAGED_TLS_DEPARTURE,
        ):
            assert pipeline_result.findings.of_class(cls), cls

    def test_revocation_stats_reported(self, pipeline_result):
        stats = pipeline_result.revocation_stats
        assert stats is not None
        assert stats.matched_in_ct > 0
        assert stats.survivors <= stats.matched_in_ct
        # The cutoff filter must actually fire (pre-Oct-2021 revocations
        # linger in CRLs because entries are retained past expiry).
        assert stats.filtered_before_cutoff > 0

    def test_windows_propagated(self, pipeline_result, small_world):
        timeline = small_world.config.timeline
        windows = pipeline_result.windows
        assert windows[StalenessClass.MANAGED_TLS_DEPARTURE] == (
            timeline.dns_scan_start,
            timeline.dns_scan_end,
        )


class TestPaperClaims:
    def test_abstract_90_day_claim(self, pipeline_result):
        """Abstract: 'shortening ... to 90 days yields a ~75% decrease in
        precarious access' — we assert the >50% band."""
        simulator = LifetimePolicySimulator(pipeline_result.findings)
        assert simulator.overall_staleness_reduction(90) > 0.5

    def test_staleness_periods_exceed_90_days_for_majority(self, pipeline_result):
        """§5.4: 'Over 50% of third-party stale certificates have staleness
        periods exceeding 90 days' for key compromise and managed TLS."""
        for cls in (StalenessClass.KEY_COMPROMISE, StalenessClass.MANAGED_TLS_DEPARTURE):
            ecdf = pipeline_result.findings.staleness_ecdf(cls)
            assert ecdf.proportion_above(90) > 0.5

    def test_staleness_median_ordering(self, pipeline_result):
        medians = {}
        for cls in (
            StalenessClass.KEY_COMPROMISE,
            StalenessClass.REGISTRANT_CHANGE,
            StalenessClass.MANAGED_TLS_DEPARTURE,
        ):
            items = pipeline_result.findings.of_class(cls)
            medians[cls] = median([f.staleness_days for f in items])
        assert (
            medians[StalenessClass.KEY_COMPROMISE]
            > medians[StalenessClass.MANAGED_TLS_DEPARTURE]
            > medians[StalenessClass.REGISTRANT_CHANGE]
        )

    def test_invalidation_days_inside_validity(self, pipeline_result):
        for finding in pipeline_result.findings.all_findings():
            certificate = finding.certificate
            assert certificate.not_before <= finding.invalidation_day <= certificate.not_after

    def test_key_compromise_findings_match_reason(self, pipeline_result):
        for finding in pipeline_result.findings.of_class(StalenessClass.KEY_COMPROMISE):
            assert "key_compromise" in finding.detail


class TestLowerBoundClaim:
    def test_detector_misses_transfers(self, small_world, pipeline_result):
        """§4.4: the WHOIS method misses transfers; ground truth confirms
        our detector is a strict lower bound on registrant changes."""
        transfers = [
            e for e in small_world.ground_truth
            if e.event_type is GroundTruthEventType.DOMAIN_TRANSFERRED
        ]
        assert transfers  # the world contains invisible changes
        detected_domains = {
            f.affected_domain
            for f in pipeline_result.findings.of_class(StalenessClass.REGISTRANT_CHANGE)
        }
        re_registered = {
            e.domain for e in small_world.ground_truth
            if e.event_type is GroundTruthEventType.DOMAIN_RE_REGISTERED
        }
        # Every detected registrant change corresponds to a true re-registration.
        assert detected_domains <= re_registered

    def test_detected_events_subset_of_registry_truth(self, small_world):
        events = find_re_registrations(small_world.whois_creation_pairs, None)
        registry = small_world.registry
        for event in events[:200]:
            spans = registry.spans(event.domain)
            assert any(span.creation_date == event.creation_day for span in spans)


class TestCrossDatasetConsistency:
    def test_managed_findings_match_departure_ground_truth(
        self, small_world, pipeline_result
    ):
        timeline = small_world.config.timeline
        departures_in_window = {
            e.domain for e in small_world.ground_truth
            if e.event_type is GroundTruthEventType.MANAGED_TLS_DEPARTED
            and timeline.dns_scan_start < e.day <= timeline.dns_scan_end
        }
        # Registration lapses also pull a customer's delegation away from
        # Cloudflare (registrar parking) — the detector legitimately counts
        # those as departures too.
        lapses_in_window = {
            e.domain for e in small_world.ground_truth
            if e.event_type is GroundTruthEventType.DOMAIN_EXPIRED_LAPSED
            and timeline.dns_scan_start < e.day <= timeline.dns_scan_end
        }
        departures_in_window |= lapses_in_window
        detected_apexes = set()
        for f in pipeline_result.findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE):
            from repro.psl.registered import e2ld

            detected_apexes.add(e2ld(f.affected_domain))
        # Detection requires a valid managed certificate, so detected ⊆ true.
        assert detected_apexes <= departures_in_window

    def test_stale_cert_serials_exist_in_corpus(self, small_world, pipeline_result):
        corpus = small_world.corpus
        for finding in pipeline_result.findings.of_class(StalenessClass.KEY_COMPROMISE):
            assert corpus.revocation_match(finding.certificate.revocation_key()) is not None
