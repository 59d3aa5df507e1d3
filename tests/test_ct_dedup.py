"""Tests for corpus dedup and the anomalous-FQDN filter."""

import pytest

from repro.ct.dedup import CertificateCorpus
from repro.util.dates import day
from tests.conftest import make_cert, make_key

T0 = day(2021, 1, 1)


class TestDedup:
    def test_precert_final_collapse(self):
        corpus = CertificateCorpus()
        cert = make_cert(not_before=T0)
        corpus.ingest([cert.as_precertificate(), cert.with_scts(["sct"])])
        assert len(corpus) == 1
        assert corpus.stats.raw_entries == 2
        assert corpus.stats.duplicates_collapsed == 1
        # The final certificate (with SCTs) wins as the canonical instance.
        only = next(corpus.certificates())
        assert not only.is_precertificate
        assert only.scts == ("sct",)

    def test_final_first_then_precert_keeps_final(self):
        corpus = CertificateCorpus()
        cert = make_cert(not_before=T0)
        corpus.ingest([cert.with_scts(["sct"]), cert.as_precertificate()])
        assert not next(corpus.certificates()).is_precertificate

    def test_distinct_certificates_kept(self):
        corpus = CertificateCorpus()
        corpus.ingest([make_cert(serial=50_001), make_cert(serial=50_002)])
        assert len(corpus) == 2

    def test_cross_log_duplicates_collapse(self):
        corpus = CertificateCorpus()
        precert = make_cert(not_before=T0).as_precertificate()
        corpus.ingest([precert])
        corpus.ingest([precert])  # same entry seen from a second log
        assert len(corpus) == 1


class TestAnomalousFqdnFilter:
    def test_filter_drops_test_domains(self):
        corpus = CertificateCorpus(fqdn_cert_limit=3)
        key = make_key()
        # 5 certificates for the same FQDN: over the limit of 3.
        for serial in range(60_000, 60_005):
            corpus.ingest([make_cert(sans=("flowers.example.com",), serial=serial, key=key)])
        corpus.ingest([make_cert(sans=("normal.com",), serial=60_010, key=key)])
        corpus.finalize()
        assert "flowers.example.com" in corpus.stats.anomalous_fqdns
        assert corpus.stats.certificates_dropped_as_anomalous == 5
        remaining = {c.subject_cn for c in corpus.certificates()}
        assert remaining == {"normal.com"}

    def test_filter_noop_below_limit(self):
        corpus = CertificateCorpus(fqdn_cert_limit=10)
        for serial in range(61_000, 61_003):
            corpus.ingest([make_cert(serial=serial)])
        corpus.finalize()
        assert corpus.stats.anomalous_fqdns == set()
        assert len(corpus) == 3


class TestQueries:
    def test_revocation_match(self):
        corpus = CertificateCorpus()
        cert = make_cert(authority_key_id="akid-q", serial=777)
        corpus.ingest([cert])
        match = corpus.revocation_match(("akid-q", 777))
        assert corpus.certificate(match.row) is cert
        assert (match.not_before, match.not_after) == (cert.not_before, cert.not_after)
        assert corpus.revocation_match(("akid-q", 778)) is None
