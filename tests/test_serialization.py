"""Tests for certificate / finding persistence (checkpointing)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.stale import StaleCertificate, StalenessClass
from repro.pki.certificate import Certificate, ExtendedKeyUsage
from repro.util.dates import day
from repro.util.storage import dump_json, load_json
from tests.conftest import make_cert

T0 = day(2021, 5, 1)


class TestCertificateRoundtrip:
    def test_basic_roundtrip(self):
        cert = make_cert(sans=("a.com", "*.a.com"), not_before=T0)
        restored = Certificate.from_record(cert.to_record())
        assert restored == cert
        assert restored.dedup_fingerprint() == cert.dedup_fingerprint()

    def test_precert_flags_preserved(self):
        precert = make_cert(not_before=T0).as_precertificate()
        assert Certificate.from_record(precert.to_record()).is_precertificate

    def test_scts_preserved(self):
        cert = make_cert(not_before=T0).with_scts(["t1", "t2"])
        assert Certificate.from_record(cert.to_record()).scts == ("t1", "t2")

    def test_extended_key_usage_preserved(self):
        cert = make_cert(
            not_before=T0,
            extended_key_usage=(
                ExtendedKeyUsage.SERVER_AUTH,
                ExtendedKeyUsage.CLIENT_AUTH,
            ),
        )
        restored = Certificate.from_record(cert.to_record())
        assert restored.extended_key_usage == cert.extended_key_usage

    def test_record_is_json_safe(self):
        import json

        cert = make_cert(not_before=T0)
        assert json.loads(json.dumps(cert.to_record())) == cert.to_record()


class TestFindingRoundtrip:
    def test_roundtrip(self):
        finding = StaleCertificate(
            certificate=make_cert(not_before=T0, lifetime=365),
            staleness_class=StalenessClass.REGISTRANT_CHANGE,
            invalidation_day=T0 + 100,
            affected_domain="example.com",
            detail="re_registered",
        )
        restored = StaleCertificate.from_record(finding.to_record())
        assert restored == finding
        assert restored.staleness_days == finding.staleness_days

    def test_none_affected_domain(self):
        finding = StaleCertificate(
            certificate=make_cert(not_before=T0),
            staleness_class=StalenessClass.KEY_COMPROMISE,
            invalidation_day=T0 + 10,
        )
        restored = StaleCertificate.from_record(finding.to_record())
        assert restored.affected_domain is None


class TestJsonlCheckpointing:
    def test_findings_through_store(self, tmp_path):
        findings = [
            StaleCertificate(
                certificate=make_cert(serial=160_000 + i, not_before=T0, lifetime=365),
                staleness_class=StalenessClass.MANAGED_TLS_DEPARTURE,
                invalidation_day=T0 + 50 + i,
                affected_domain="example.com",
            )
            for i in range(5)
        ]
        path = str(tmp_path / "findings.json.gz")
        dump_json(path, [finding.to_record() for finding in findings])
        assert [StaleCertificate.from_record(r) for r in load_json(path)] == findings

    def test_corpus_checkpoint(self, tmp_path, small_world):
        from repro.pki.certificate import Certificate

        sample = list(small_world.corpus.certificates())[:50]
        path = str(tmp_path / "corpus.json")
        dump_json(path, [certificate.to_record() for certificate in sample])
        restored = [Certificate.from_record(r) for r in load_json(path)]
        assert restored == sample
