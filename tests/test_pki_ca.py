"""Tests for CA issuance and policy enforcement."""

import pytest

from repro.pki.ca import CertificateAuthority, IssuanceError, IssuancePolicy
from repro.pki.certificate import ExtendedKeyUsage
from repro.pki.keys import KeyStore
from repro.util.dates import day

T_LEGACY = day(2016, 6, 1)
T_825 = day(2019, 6, 1)
T_398 = day(2021, 6, 1)


@pytest.fixture()
def ca(key_store):
    return CertificateAuthority("Test CA", key_store)


class TestIssue:
    def test_basic_issuance(self, ca, key_store):
        key = key_store.generate("sub", T_398)
        cert = ca.issue(["example.com"], key, T_398)
        assert cert.issuer_name == "Test CA"
        assert cert.authority_key_id == ca.authority_key_id
        assert cert.not_after - cert.not_before == ca.policy.default_lifetime_days
        assert cert.crl_url == ca.crl_url
        assert cert.extended_key_usage == (ExtendedKeyUsage.SERVER_AUTH,)
        assert ca.find_by_serial(cert.serial) is cert

    def test_serials_unique_and_increasing(self, ca, key_store):
        key = key_store.generate("sub", T_398)
        serials = [ca.issue(["example.com"], key, T_398).serial for _ in range(5)]
        assert serials == sorted(set(serials))

    def test_empty_names_rejected(self, ca, key_store):
        key = key_store.generate("sub", T_398)
        with pytest.raises(IssuanceError):
            ca.issue([], key, T_398)

    def test_lifetime_over_policy_rejected(self, ca, key_store):
        key = key_store.generate("sub", T_398)
        with pytest.raises(IssuanceError, match="exceeds maximum"):
            ca.issue(["example.com"], key, T_398, lifetime_days=399)

    def test_forum_limits_shrink_over_time(self, key_store):
        lenient = CertificateAuthority(
            "Legacy CA",
            key_store,
            policy=IssuancePolicy(max_lifetime_days=1200),
        )
        key = key_store.generate("sub", T_LEGACY)
        legacy = lenient.issue(["a.com"], key, T_LEGACY, lifetime_days=1100)
        assert legacy.lifetime_days == 1100
        with pytest.raises(IssuanceError):
            lenient.issue(["a.com"], key, T_825, lifetime_days=900)
        with pytest.raises(IssuanceError):
            lenient.issue(["a.com"], key, T_398, lifetime_days=500)

    def test_issued_count(self, ca, key_store):
        key = key_store.generate("sub", T_398)
        ca.issue(["a.com"], key, T_398)
        ca.issue(["b.com"], key, T_398)
        assert ca.issued_count() == 2


class TestPolicy:
    def test_effective_max_respects_self_imposed_limit(self):
        policy = IssuancePolicy(max_lifetime_days=90)
        assert policy.effective_max(T_LEGACY) == 90
        assert policy.effective_max(T_398) == 90
