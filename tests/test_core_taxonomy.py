"""Tests for the Tables 1 & 2 taxonomies."""

from repro.core.taxonomy import (
    CERTIFICATE_INFORMATION_TAXONOMY,
    INVALIDATION_EVENTS,
    CertificateInfoCategory,
    ControlledBy,
    InvalidationEvent,
    SecurityImplication,
)


def third_party_specs():
    return [
        spec
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
        assert {spec.event for spec in third_party_specs()} == {
            InvalidationEvent.DOMAIN_OWNERSHIP_CHANGE,
            InvalidationEvent.KEY_OWNERSHIP_CHANGE,
            InvalidationEvent.MANAGED_TLS_DEPARTURE,
        }

    def test_third_party_events_imply_impersonation(self):
        for spec in third_party_specs():
            assert spec.implication is SecurityImplication.DOMAIN_IMPERSONATION

    def test_first_party_events_minimal_or_overpermissioned(self):
        for spec in INVALIDATION_EVENTS:
            if spec.controlled_by is ControlledBy.FIRST_PARTY:
                assert spec.implication in (
                    SecurityImplication.MINIMAL,
                    SecurityImplication.OVER_PERMISSIONED,
                )

    def test_managed_tls_is_key_use_change_with_third_party_consequence(self):
        spec, = (
            spec
            for spec in INVALIDATION_EVENTS
            if spec.event is InvalidationEvent.MANAGED_TLS_DEPARTURE
        )
        assert spec.category is CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION
        assert spec.controlled_by is ControlledBy.THIRD_PARTY

