"""Tests for the Tables 1 & 2 taxonomies."""

from repro.core.taxonomy import (
    CERTIFICATE_INFORMATION_TAXONOMY,
    INVALIDATION_EVENTS,
    CertificateInfoCategory,
    ControlledBy,
    InvalidationEvent,
    SecurityImplication,
    classify_invalidation,
    spec_for,
)


def third_party_events():
    return [
        spec.event
        for spec in INVALIDATION_EVENTS
        if spec.controlled_by is ControlledBy.THIRD_PARTY
    ]


class TestTable1:
    def test_four_categories(self):
        assert len(CERTIFICATE_INFORMATION_TAXONOMY) == 4
        assert {row.category for row in CERTIFICATE_INFORMATION_TAXONOMY} == set(
            CertificateInfoCategory
        )

    def test_subscriber_auth_fields(self):
        row = CERTIFICATE_INFORMATION_TAXONOMY[0]
        assert row.category is CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION
        assert "SAN" in row.related_fields

    def test_metadata_includes_ct_fields(self):
        row = CERTIFICATE_INFORMATION_TAXONOMY[-1]
        assert "Signed Cert. Timestamps" in row.related_fields


class TestTable2:
    def test_seven_events(self):
        assert len(INVALIDATION_EVENTS) == 7

    def test_exactly_three_third_party_events(self):
        assert set(third_party_events()) == {
            InvalidationEvent.DOMAIN_OWNERSHIP_CHANGE,
            InvalidationEvent.KEY_OWNERSHIP_CHANGE,
            InvalidationEvent.MANAGED_TLS_DEPARTURE,
        }

    def test_third_party_events_imply_impersonation(self):
        for event in third_party_events():
            assert spec_for(event).implication is SecurityImplication.DOMAIN_IMPERSONATION

    def test_first_party_events_minimal_or_overpermissioned(self):
        for spec in INVALIDATION_EVENTS:
            if spec.controlled_by is ControlledBy.FIRST_PARTY:
                assert spec.implication in (
                    SecurityImplication.MINIMAL,
                    SecurityImplication.OVER_PERMISSIONED,
                )

    def test_managed_tls_is_key_use_change_with_third_party_consequence(self):
        spec = spec_for(InvalidationEvent.MANAGED_TLS_DEPARTURE)
        assert spec.category is CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION
        assert spec.controlled_by is ControlledBy.THIRD_PARTY


class TestClassifier:
    def test_multiple_events_allowed(self):
        # The paper's critique of CRL single-reason: events can coexist.
        events = classify_invalidation(
            domain_owner_changed=True, key_rotated=True
        )
        kinds = [spec.event for spec in events]
        assert InvalidationEvent.DOMAIN_OWNERSHIP_CHANGE in kinds
        assert InvalidationEvent.KEY_USE_CHANGE in kinds

    def test_severity_ordering(self):
        events = classify_invalidation(
            ca_infrastructure_changed=True,
            key_unauthorized_access=True,
            key_authorization_changed=True,
        )
        implications = [spec.implication for spec in events]
        assert implications == [
            SecurityImplication.DOMAIN_IMPERSONATION,
            SecurityImplication.OVER_PERMISSIONED,
            SecurityImplication.MINIMAL,
        ]

    def test_no_flags_no_events(self):
        assert classify_invalidation() == []

    def test_managed_tls_flag(self):
        events = classify_invalidation(former_managed_tls_holds_key=True)
        assert events[0].event is InvalidationEvent.MANAGED_TLS_DEPARTURE
