"""Tests for CA-side CRL publication and CCADB-style disclosure."""

import pytest

from repro.pki.ca import CertificateAuthority
from repro.revocation.publisher import CaCrlPublisher, DisclosureList
from repro.revocation.reasons import RevocationReason
from repro.util.dates import day

T0 = day(2021, 6, 1)


@pytest.fixture()
def ca(key_store):
    return CertificateAuthority("Pub CA", key_store)


@pytest.fixture()
def issued(ca, key_store):
    key = key_store.generate("sub", T0)
    return [ca.issue([f"d{i}.com"], key, T0) for i in range(3)]


class TestRevoke:
    def test_revoke_and_publish(self, ca, issued):
        publisher = CaCrlPublisher(ca)
        publisher.revoke(issued[0], T0 + 10, RevocationReason.KEY_COMPROMISE)
        crl = publisher.publish(T0 + 20)
        assert len(crl) == 1
        entry = crl.is_revoked(issued[0].serial)
        assert entry.reason is RevocationReason.KEY_COMPROMISE
        assert entry.revocation_day == T0 + 10

    def test_revoke_idempotent_first_wins(self, ca, issued):
        publisher = CaCrlPublisher(ca)
        first = publisher.revoke(issued[0], T0 + 10, RevocationReason.SUPERSEDED)
        second = publisher.revoke(issued[0], T0 + 20, RevocationReason.KEY_COMPROMISE)
        assert first is second
        assert publisher.is_revoked(issued[0].serial).reason is RevocationReason.SUPERSEDED

    def test_foreign_certificate_rejected(self, ca, key_store):
        other = CertificateAuthority("Other CA", key_store)
        key = key_store.generate("sub", T0)
        foreign = other.issue(["x.com"], key, T0)
        publisher = CaCrlPublisher(ca)
        with pytest.raises(ValueError):
            publisher.revoke(foreign, T0)

    def test_mozilla_reason_normalization(self, ca, issued):
        publisher = CaCrlPublisher(ca, enforce_mozilla_reasons=True)
        record = publisher.revoke(issued[0], T0, RevocationReason.CERTIFICATE_HOLD)
        assert record.reason is RevocationReason.UNSPECIFIED

    def test_reason_preserved_without_enforcement(self, ca, issued):
        publisher = CaCrlPublisher(ca, enforce_mozilla_reasons=False)
        record = publisher.revoke(issued[0], T0, RevocationReason.CERTIFICATE_HOLD)
        assert record.reason is RevocationReason.CERTIFICATE_HOLD


class TestPublish:
    def test_future_revocations_not_published(self, ca, issued):
        publisher = CaCrlPublisher(ca)
        publisher.revoke(issued[0], T0 + 100)
        assert len(publisher.publish(T0 + 50)) == 0
        assert len(publisher.publish(T0 + 100)) == 1

    def test_expired_entries_retained_by_default(self, ca, issued):
        publisher = CaCrlPublisher(ca)
        publisher.revoke(issued[0], T0 + 10)
        after_expiry = issued[0].not_after + 30
        assert len(publisher.publish(after_expiry)) == 1

    def test_shed_expired_option(self, ca, issued):
        publisher = CaCrlPublisher(ca, shed_expired=True)
        publisher.revoke(issued[0], T0 + 10)
        assert len(publisher.publish(issued[0].not_after + 1)) == 0

    def test_same_day_publish_cached(self, ca, issued):
        publisher = CaCrlPublisher(ca)
        publisher.revoke(issued[0], T0)
        a = publisher.publish(T0 + 1)
        b = publisher.publish(T0 + 1)
        assert a is b
        c = publisher.publish(T0 + 2)
        assert c is not a

    def test_crl_window(self, ca):
        publisher = CaCrlPublisher(ca, crl_validity_days=3)
        crl = publisher.publish(T0)
        assert crl.next_update == T0 + 3


class TestDisclosure:
    def test_single_endpoint(self, ca):
        disclosure = DisclosureList()
        rows = disclosure.disclose(CaCrlPublisher(ca))
        assert len(rows) == 1
        assert len(disclosure) == 1

    def test_multiple_endpoints_distinct_urls(self, ca):
        disclosure = DisclosureList()
        rows = disclosure.disclose(CaCrlPublisher(ca), endpoints=3)
        urls = {row.url for row in rows}
        assert len(urls) == 3

    def test_zero_endpoints_rejected(self, ca):
        with pytest.raises(ValueError):
            DisclosureList().disclose(CaCrlPublisher(ca), endpoints=0)

    def test_by_operator_grouping(self, ca, key_store):
        other = CertificateAuthority(
            "Other CA",
            key_store,
            operator="OtherOp",
        )
        disclosure = DisclosureList()
        disclosure.disclose(CaCrlPublisher(ca), endpoints=2)
        disclosure.disclose(CaCrlPublisher(other))
        grouped = disclosure.by_operator()
        assert len(grouped["Pub CA"]) == 2
        assert len(grouped["OtherOp"]) == 1
