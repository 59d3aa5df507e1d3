"""Certificate-information and invalidation-event taxonomies.

Encodes paper Tables 1 and 2 as queryable data structures, plus the
classifier that maps an observed operational change onto an invalidation
event with its security implications. The core design argument of Section 3
is that RFC 5280 reason codes are a poor basis for a taxonomy; this module
is the replacement the paper proposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple


class CertificateInfoCategory(enum.Enum):
    """Table 1: the four higher-level roles of certificate information."""

    SUBSCRIBER_AUTHENTICATION = "subscriber_authentication"
    KEY_AUTHORIZATION = "key_authorization"
    ISSUER_INFORMATION = "issuer_information"
    CERTIFICATE_METADATA = "certificate_metadata"


@dataclass(frozen=True)
class CategoryDescription:
    """One row of Table 1."""

    category: CertificateInfoCategory
    description: str
    related_fields: Tuple[str, ...]


#: Table 1, verbatim structure.
CERTIFICATE_INFORMATION_TAXONOMY: Tuple[CategoryDescription, ...] = (
    CategoryDescription(
        CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION,
        "Subscriber identifiers: domain + crypto. keys",
        ("Subject Name", "SAN", "Subject Public Key", "Subject Key ID"),
    ),
    CategoryDescription(
        CertificateInfoCategory.KEY_AUTHORIZATION,
        "Permissions + constraints on key utilization",
        ("Basic Constraints", "Key Usage", "Extended Key Usage"),
    ),
    CategoryDescription(
        CertificateInfoCategory.ISSUER_INFORMATION,
        "Details of CA that issued certificate",
        (
            "Issuer Name",
            "Authority Key ID",
            "Signature",
            "CRL Distribution Points",
            "Authority Info. Access",
            "Certificate Policy",
        ),
    ),
    CategoryDescription(
        CertificateInfoCategory.CERTIFICATE_METADATA,
        "Meta-information about the certificate itself",
        ("Serial #", "Precert. Poison", "Signed Cert. Timestamps"),
    ),
)


class ControlledBy(enum.Enum):
    """Who ends up controlling the stale certificate's key."""

    FIRST_PARTY = "first_party"
    THIRD_PARTY = "third_party"


class SecurityImplication(enum.Enum):
    """Severity classes used in Table 2."""

    DOMAIN_IMPERSONATION = "tls_domain_impersonation"
    OVER_PERMISSIONED = "over_permissioned_key_use"
    MINIMAL = "minimal"


class InvalidationEvent(enum.Enum):
    """Table 2: certificate invalidation events."""

    DOMAIN_OWNERSHIP_CHANGE = "domain_ownership_change"
    DOMAIN_USE_CHANGE = "domain_use_change"
    KEY_OWNERSHIP_CHANGE = "key_ownership_change"  # key compromise
    KEY_USE_CHANGE = "key_use_change"  # rotation / disuse
    MANAGED_TLS_DEPARTURE = "managed_tls_departure"
    KEY_AUTHORIZATION_CHANGE = "key_authorization_change"
    REVOCATION_INFO_CHANGE = "revocation_info_change"


@dataclass(frozen=True)
class InvalidationEventSpec:
    """One row of Table 2."""

    event: InvalidationEvent
    category: CertificateInfoCategory
    example: str
    controlled_by: ControlledBy
    implication: SecurityImplication


#: Table 2, verbatim structure. Managed TLS departure is the starred row:
#: formally a key-use change, but with third-party consequences.
INVALIDATION_EVENTS: Tuple[InvalidationEventSpec, ...] = (
    InvalidationEventSpec(
        InvalidationEvent.DOMAIN_OWNERSHIP_CHANGE,
        CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION,
        "Domain registrant change (§5.2)",
        ControlledBy.THIRD_PARTY,
        SecurityImplication.DOMAIN_IMPERSONATION,
    ),
    InvalidationEventSpec(
        InvalidationEvent.DOMAIN_USE_CHANGE,
        CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION,
        "Domain expiration + no new owner",
        ControlledBy.FIRST_PARTY,
        SecurityImplication.MINIMAL,
    ),
    InvalidationEventSpec(
        InvalidationEvent.KEY_OWNERSHIP_CHANGE,
        CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION,
        "Key compromise (§5.1)",
        ControlledBy.THIRD_PARTY,
        SecurityImplication.DOMAIN_IMPERSONATION,
    ),
    InvalidationEventSpec(
        InvalidationEvent.KEY_USE_CHANGE,
        CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION,
        "Key disuse: e.g., rotation",
        ControlledBy.FIRST_PARTY,
        SecurityImplication.MINIMAL,
    ),
    InvalidationEventSpec(
        InvalidationEvent.MANAGED_TLS_DEPARTURE,
        CertificateInfoCategory.SUBSCRIBER_AUTHENTICATION,
        "Managed TLS departure (§5.3)",
        ControlledBy.THIRD_PARTY,
        SecurityImplication.DOMAIN_IMPERSONATION,
    ),
    InvalidationEventSpec(
        InvalidationEvent.KEY_AUTHORIZATION_CHANGE,
        CertificateInfoCategory.KEY_AUTHORIZATION,
        "Key scope reduction",
        ControlledBy.FIRST_PARTY,
        SecurityImplication.OVER_PERMISSIONED,
    ),
    InvalidationEventSpec(
        InvalidationEvent.REVOCATION_INFO_CHANGE,
        CertificateInfoCategory.ISSUER_INFORMATION,
        "CA infrastructure change",
        ControlledBy.FIRST_PARTY,
        SecurityImplication.MINIMAL,
    ),
)

_SPEC_BY_EVENT: Dict[InvalidationEvent, InvalidationEventSpec] = {
    spec.event: spec for spec in INVALIDATION_EVENTS
}


def spec_for(event: InvalidationEvent) -> InvalidationEventSpec:
    """The Table 2 row for an event."""
    return _SPEC_BY_EVENT[event]


def classify_invalidation(  # repro-lint: disable=RL703  # no engine reader; kept with its unit tests until a later change deletes it (ROADMAP item 6)
    domain_owner_changed: bool = False,
    domain_in_use_change: bool = False,
    key_unauthorized_access: bool = False,
    key_rotated: bool = False,
    former_managed_tls_holds_key: bool = False,
    key_authorization_changed: bool = False,
    ca_infrastructure_changed: bool = False,
) -> List[InvalidationEventSpec]:
    """Map observed operational changes onto Table 2 rows.

    Multiple events can coexist (the paper's critique of CRL's single-reason
    restriction), so a list is returned, most severe first.
    """
    events: List[InvalidationEventSpec] = []
    if key_unauthorized_access:
        events.append(spec_for(InvalidationEvent.KEY_OWNERSHIP_CHANGE))
    if domain_owner_changed:
        events.append(spec_for(InvalidationEvent.DOMAIN_OWNERSHIP_CHANGE))
    if former_managed_tls_holds_key:
        events.append(spec_for(InvalidationEvent.MANAGED_TLS_DEPARTURE))
    if key_rotated:
        events.append(spec_for(InvalidationEvent.KEY_USE_CHANGE))
    if domain_in_use_change:
        events.append(spec_for(InvalidationEvent.DOMAIN_USE_CHANGE))
    if key_authorization_changed:
        events.append(spec_for(InvalidationEvent.KEY_AUTHORIZATION_CHANGE))
    if ca_infrastructure_changed:
        events.append(spec_for(InvalidationEvent.REVOCATION_INFO_CHANGE))
    severity_rank = {
        SecurityImplication.DOMAIN_IMPERSONATION: 0,
        SecurityImplication.OVER_PERMISSIONED: 1,
        SecurityImplication.MINIMAL: 2,
    }
    events.sort(key=lambda spec: severity_rank[spec.implication])
    return events
