"""Tests for the BygoneSSL-style acquisition advisor."""

import pytest

from repro.core.advisory import (
    KeyController,
    Remediation,
    StaleCertificateAdvisor,
)
from repro.core.pipeline import MeasurementPipeline
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.data import open_bundle
from repro.ecosystem.timeline import DEFAULT_TIMELINE
from repro.pki.keys import KeyStore
from repro.psl.registered import DomainName, e2ld
from repro.util.dates import day
from tests.conftest import make_cert

ACQUIRED = day(2022, 6, 1)


def corpus_with(*certs):
    corpus = CertificateCorpus()
    corpus.ingest(certs)
    return corpus


class TestCheckAcquisition:
    def test_unexpired_prior_cert_is_exposure(self):
        cert = make_cert(sans=("foo.com", "www.foo.com"), serial=140_001,
                         not_before=ACQUIRED - 100, lifetime=365)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert not report.is_clean
        exposure = report.exposures[0]
        assert exposure.matched_names == ("foo.com", "www.foo.com")
        assert exposure.exposure_days_remaining == 265
        assert report.exposure_ends == cert.not_after
        assert "impersonation possible" in report.summary()

    def test_expired_prior_cert_is_not_exposure(self):
        cert = make_cert(sans=("foo.com",), serial=140_002,
                         not_before=ACQUIRED - 400, lifetime=90)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.is_clean
        assert "safe to deploy" in report.summary()

    def test_post_acquisition_cert_is_not_exposure(self):
        cert = make_cert(sans=("foo.com",), serial=140_003,
                         not_before=ACQUIRED + 10, lifetime=90)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.is_clean

    def test_subdomain_certificates_matched(self):
        cert = make_cert(sans=("mail.foo.com",), serial=140_004,
                         not_before=ACQUIRED - 10, lifetime=365)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.exposures[0].matched_names == ("mail.foo.com",)

    def test_unrelated_domains_ignored(self):
        cert = make_cert(sans=("foofoo.com",), serial=140_005,
                         not_before=ACQUIRED - 10, lifetime=365)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.is_clean  # label-aligned matching only

    def test_exposures_sorted_longest_first(self):
        near = make_cert(sans=("foo.com",), serial=140_006,
                         not_before=ACQUIRED - 300, lifetime=365)
        far = make_cert(sans=("foo.com",), serial=140_007,
                        not_before=ACQUIRED - 10, lifetime=365)
        report = StaleCertificateAdvisor(corpus_with(near, far)).check_acquisition(
            "foo.com", ACQUIRED
        )
        remaining = [e.exposure_days_remaining for e in report.exposures]
        assert remaining == sorted(remaining, reverse=True)
        assert report.total_exposure_days == sum(remaining)


class TestControllerClassification:
    def test_managed_tls_provider(self):
        cert = make_cert(sans=("sni1234.cloudflaressl.com", "foo.com"),
                         serial=140_010, not_before=ACQUIRED - 10, lifetime=365)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.exposures[0].controller is KeyController.MANAGED_TLS_PROVIDER

    def test_previous_registrant(self):
        store = KeyStore()
        key = store.generate("registrant-42", ACQUIRED - 10)
        cert = make_cert(sans=("foo.com",), serial=140_011, key=key,
                         not_before=ACQUIRED - 10, lifetime=365)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.exposures[0].controller is KeyController.PREVIOUS_REGISTRANT

    def test_unknown_third_party(self):
        report = StaleCertificateAdvisor(
            corpus_with(
                make_cert(sans=("foo.com",), serial=140_012,
                          not_before=ACQUIRED - 10, lifetime=365)
            )
        ).check_acquisition("foo.com", ACQUIRED)
        assert report.exposures[0].controller is KeyController.UNKNOWN_THIRD_PARTY


class TestRemediation:
    def test_revocation_suggested_when_endpoints_exist(self):
        cert = make_cert(sans=("foo.com",), serial=140_020,
                         not_before=ACQUIRED - 10, lifetime=365,
                         crl_url="http://crl.example/x.crl")
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.exposures[0].remediation is Remediation.REQUEST_REVOCATION
        assert "remediation" in report.exposures[0].describe()

    def test_wait_for_expiry_without_revocation_infra(self):
        cert = make_cert(sans=("foo.com",), serial=140_021,
                         not_before=ACQUIRED - 10, lifetime=365,
                         crl_url=None, ocsp_url=None)
        report = StaleCertificateAdvisor(corpus_with(cert)).check_acquisition(
            "foo.com", ACQUIRED
        )
        assert report.exposures[0].remediation is Remediation.WAIT_FOR_EXPIRY


class TestMonitorNewIssuance:
    def test_new_certs_after_acquisition_listed(self):
        old = make_cert(sans=("foo.com",), serial=140_030,
                        not_before=ACQUIRED - 50, lifetime=90)
        new = make_cert(sans=("foo.com",), serial=140_031,
                        not_before=ACQUIRED + 5, lifetime=90)
        advisor = StaleCertificateAdvisor(corpus_with(old, new))
        issued = advisor.monitor_new_issuance("foo.com", ACQUIRED)
        assert [c.serial for c in issued] == [140_031]


class TestOnSimulatedWorld:
    def test_re_registered_domains_show_exposures(self, small_world, pipeline_result):
        from repro.core.stale import StalenessClass

        findings = pipeline_result.findings.of_class(StalenessClass.REGISTRANT_CHANGE)
        assert findings
        advisor = StaleCertificateAdvisor(small_world.corpus)
        finding = findings[0]
        report = advisor.check_acquisition(
            finding.affected_domain, finding.invalidation_day
        )
        assert not report.is_clean
        serials = {e.certificate.serial for e in report.exposures}
        assert finding.certificate.serial in serials


def full_scan_exposures(corpus, domain, acquisition_day):
    """The oracle: the advisor's definition as a scan of every certificate.

    Every certificate issued before *acquisition_day*, not expired on it,
    with a name equal to or beneath the target's registrable domain;
    longest remaining exposure first, corpus order among ties.
    """
    target = DomainName(domain).name
    registrable = e2ld(target) or target
    exposures = []
    for certificate in corpus.certificates():
        if certificate.not_before >= acquisition_day:
            continue
        if certificate.not_after < acquisition_day:
            continue
        matched = tuple(
            sorted(
                name
                for name in certificate.fqdns()
                if name == registrable or name.endswith("." + registrable)
            )
        )
        if matched:
            exposures.append(
                (certificate.dedup_fingerprint(), matched, certificate.not_after)
            )
    exposures.sort(key=lambda exposure: acquisition_day - exposure[2])
    return [(fingerprint, matched) for fingerprint, matched, _ in exposures]


def full_scan_issuance(corpus, domain, since_day):
    """The oracle for ``monitor_new_issuance``: a scan of every certificate."""
    target = DomainName(domain).name
    return sorted(
        (
            certificate
            for certificate in corpus.certificates()
            if certificate.not_before >= since_day and certificate.covers_name(target)
        ),
        key=lambda certificate: certificate.not_before,
    )


class TestNarrowedScanOnStreamgenWorld:
    """The advisor reads key rows and builds only the rows under the
    queried domain; its answers equal the full scan on every
    registrant-change finding (the queries live ``watch`` makes)."""

    def test_every_finding_matches_the_full_scan(self, streamgen_dir):
        bundle = open_bundle(streamgen_dir)
        result = MeasurementPipeline.run_bundle(
            bundle, revocation_cutoff_day=DEFAULT_TIMELINE.revocation_cutoff
        )
        findings = result.findings.of_class(StalenessClass.REGISTRANT_CHANGE)
        assert findings
        advisor = StaleCertificateAdvisor(open_bundle(streamgen_dir).corpus)
        exposed = 0
        for finding in findings:
            domain, on_day = finding.affected_domain, finding.invalidation_day
            report = advisor.check_acquisition(domain, on_day)
            assert [
                (exposure.certificate.dedup_fingerprint(), exposure.matched_names)
                for exposure in report.exposures
            ] == full_scan_exposures(bundle.corpus, domain, on_day)
            exposed += len(report.exposures)
            assert advisor.monitor_new_issuance(domain, on_day) == full_scan_issuance(
                bundle.corpus, domain, on_day
            )
        assert exposed
