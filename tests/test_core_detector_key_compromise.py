"""Tests for the key-compromise (CRL x CT) detection pipeline (§4.1)."""

import pytest

from repro.core.detectors.key_compromise import KeyCompromiseDetector
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.revocation.reasons import RevocationReason
from repro.util.dates import day
from tests.conftest import make_cert

T0 = day(2022, 1, 1)
CUTOFF = day(2021, 10, 1)


def crl_with(entries, akid="akid-kc", update=T0 + 30):
    crl = CertificateRevocationList(
        issuer_name="KC CA",
        authority_key_id=akid,
        this_update=update,
        next_update=update + 7,
        crl_number=1,
    )
    for entry in entries:
        crl.add(entry)
    return crl


@pytest.fixture()
def corpus():
    corpus = CertificateCorpus()
    corpus.ingest(
        [
            make_cert(sans=("kc.com",), serial=1, authority_key_id="akid-kc",
                      not_before=T0, lifetime=365, issuer="KC CA"),
            make_cert(sans=("other.com",), serial=2, authority_key_id="akid-kc",
                      not_before=T0, lifetime=365, issuer="KC CA"),
        ]
    )
    return corpus


class TestDetection:
    def test_key_compromise_yields_both_classes(self, corpus):
        detector = KeyCompromiseDetector(corpus)
        crl = crl_with([CrlEntry(1, T0 + 30, RevocationReason.KEY_COMPROMISE)])
        findings = detector.detect([crl])
        assert len(findings.of_class(StalenessClass.REVOKED_ALL)) == 1
        kc = findings.of_class(StalenessClass.KEY_COMPROMISE)
        assert len(kc) == 1
        assert kc[0].staleness_days == 335
        assert kc[0].invalidation_day == T0 + 30

    def test_other_reasons_only_revoked_all(self, corpus):
        detector = KeyCompromiseDetector(corpus)
        crl = crl_with([CrlEntry(2, T0 + 30, RevocationReason.SUPERSEDED)])
        findings = detector.detect([crl])
        assert len(findings.of_class(StalenessClass.REVOKED_ALL)) == 1
        assert findings.of_class(StalenessClass.KEY_COMPROMISE) == []

    def test_unmatched_revocations_counted(self, corpus):
        detector = KeyCompromiseDetector(corpus)
        crl = crl_with([CrlEntry(999, T0 + 30)])  # serial not in CT
        findings = detector.detect([crl])
        assert len(findings) == 0
        assert detector.stats.unmatched == 1

    def test_wrong_issuer_key_not_matched(self, corpus):
        detector = KeyCompromiseDetector(corpus)
        crl = crl_with([CrlEntry(1, T0 + 30)], akid="akid-other")
        findings = detector.detect([crl])
        assert len(findings) == 0


class TestFilters:
    def test_revoked_before_valid_filtered(self, corpus):
        detector = KeyCompromiseDetector(corpus)
        crl = crl_with([CrlEntry(1, T0 - 10)])
        findings = detector.detect([crl])
        assert len(findings) == 0
        assert detector.stats.filtered_revoked_before_valid == 1

    def test_revoked_after_expiration_filtered(self, corpus):
        detector = KeyCompromiseDetector(corpus)
        crl = crl_with([CrlEntry(1, T0 + 400)])
        findings = detector.detect([crl])
        assert len(findings) == 0
        assert detector.stats.filtered_revoked_after_expiration == 1

    def test_pre_cutoff_filtered(self):
        corpus = CertificateCorpus()
        old = make_cert(sans=("old.com",), serial=3, authority_key_id="akid-kc",
                        not_before=day(2021, 6, 1), lifetime=365, issuer="KC CA")
        corpus.ingest([old])
        detector = KeyCompromiseDetector(corpus, revocation_cutoff_day=CUTOFF)
        crl = crl_with([CrlEntry(3, day(2021, 8, 1))])
        findings = detector.detect([crl])
        assert len(findings) == 0
        assert detector.stats.filtered_before_cutoff == 1

    def test_filters_can_be_disabled(self, corpus):
        detector = KeyCompromiseDetector(corpus, revocation_cutoff_day=CUTOFF)
        crl = crl_with([CrlEntry(1, T0 - 10)])
        findings = detector.detect([crl], apply_filters=False)
        # Invalidation day clamped into validity so staleness stays defined.
        assert len(findings.of_class(StalenessClass.REVOKED_ALL)) == 1
        assert findings.of_class(StalenessClass.REVOKED_ALL)[0].invalidation_day == T0

    def test_duplicate_crl_days_merge(self, corpus):
        detector = KeyCompromiseDetector(corpus)
        entry = CrlEntry(1, T0 + 30, RevocationReason.KEY_COMPROMISE)
        crls = [crl_with([entry], update=T0 + 30 + i) for i in range(5)]
        findings = detector.detect(crls)
        assert len(findings.of_class(StalenessClass.KEY_COMPROMISE)) == 1
