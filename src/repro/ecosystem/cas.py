"""Concrete CA profiles matching the issuers named in the paper.

Each profile captures a CA's issuance behaviour: default/maximum lifetimes
(Let's Encrypt, cPanel, and Google Trust Services self-impose 90 days —
Section 6), whether it is a managed-TLS backend, its market share over the
eras of the simulation, and its CRL fetch failure profile (Table 7 /
Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.pki.ca import CertificateAuthority, IssuancePolicy
from repro.pki.keys import KeyStore
from repro.revocation.fetcher import FailureProfile
from repro.revocation.publisher import CaCrlPublisher, DisclosureList
from repro.util.dates import Day, day


@dataclass(frozen=True)
class CaProfile:
    """Static description of one CA used to instantiate the simulation."""

    name: str
    operator: str
    default_lifetime_days: int
    max_lifetime_days: int
    #: (era start day, relative issuance weight) pairs; weight 0 = inactive.
    share_schedule: Tuple[Tuple[Day, float], ...]
    acme_automated: bool = False
    crl_failure: FailureProfile = field(default_factory=FailureProfile)
    #: Disclosed CRL endpoints (big CAs run many; Appendix B / Table 7).
    crl_endpoints: int = 1

    def weight_on(self, query_day: Day) -> float:
        weight = 0.0
        for start, value in self.share_schedule:
            if query_day >= start:
                weight = value
        return weight


def build_standard_profiles() -> List[CaProfile]:
    """The issuer mix behind Figures 4 and 5b.

    Weights are relative within the self-managed issuance pool; the
    Cloudflare-managed pool is handled by :mod:`repro.ecosystem.cdn` with its
    own issuer timeline (COMODO cruise-liners, then Cloudflare's own CA).
    """
    y2013 = day(2013, 3, 1)
    return [
        CaProfile(
            name="Let's Encrypt X3",
            crl_endpoints=8,
            operator="ISRG (Let's Encrypt)",
            default_lifetime_days=90,
            max_lifetime_days=90,
            share_schedule=(
                (day(2015, 12, 3), 1.0),
                (day(2017, 6, 1), 4.0),
                (day(2019, 1, 1), 7.0),
            ),
            acme_automated=True,
        ),
        CaProfile(
            name="cPanel, Inc. CA",
            crl_endpoints=4,
            operator="cPanel",
            default_lifetime_days=90,
            max_lifetime_days=90,
            share_schedule=((day(2016, 6, 1), 1.2),),
            acme_automated=True,
        ),
        CaProfile(
            name="Google Trust Services CA 1C3",
            crl_endpoints=4,
            operator="GTS",
            default_lifetime_days=90,
            max_lifetime_days=90,
            share_schedule=((day(2020, 3, 1), 0.8),),
            acme_automated=True,
        ),
        CaProfile(
            name="DigiCert SHA2 Secure Server CA",
            crl_endpoints=30,
            operator="DigiCert",
            default_lifetime_days=365,
            max_lifetime_days=825,
            share_schedule=((y2013, 2.0), (day(2020, 9, 1), 1.5)),
            crl_failure=FailureProfile(rate_limit_probability=0.0127),
        ),
        CaProfile(
            name="Sectigo RSA DV CA",
            crl_endpoints=40,
            operator="Sectigo",
            default_lifetime_days=365,
            max_lifetime_days=825,
            share_schedule=((y2013, 2.0),),
            crl_failure=FailureProfile(rate_limit_probability=0.0036),
        ),
        CaProfile(
            # GoDaddy sells one-year certificates padded with the renewal
            # month (the same 366+31+1 rationale behind the 398-day limit).
            name="GoDaddy Secure CA - G2",
            crl_endpoints=6,
            operator="GoDaddy",
            default_lifetime_days=395,
            max_lifetime_days=825,
            share_schedule=((y2013, 1.5),),
        ),
        CaProfile(
            name="Entrust CA - L1K",
            crl_endpoints=3,
            operator="Entrust",
            default_lifetime_days=365,
            max_lifetime_days=825,
            share_schedule=((y2013, 0.6),),
            crl_failure=FailureProfile(rate_limit_probability=0.0154),
        ),
        CaProfile(
            name="GlobalSign DV CA",
            crl_endpoints=13,
            operator="GlobalSign",
            default_lifetime_days=365,
            max_lifetime_days=825,
            share_schedule=((y2013, 0.5),),
            crl_failure=FailureProfile(rate_limit_probability=0.0259),
        ),
        # Table 7's zero-coverage rows: trusted CAs whose CRL endpoints block
        # automated scraping entirely.
        CaProfile(
            name="Microsoft RSA TLS CA",
            operator="Microsoft",
            default_lifetime_days=365,
            max_lifetime_days=398,
            share_schedule=((day(2020, 9, 1), 0.3),),
            crl_failure=FailureProfile(blocked=True),
        ),
        CaProfile(
            name="Visa eCommerce CA",
            operator="Visa",
            default_lifetime_days=365,
            max_lifetime_days=825,
            share_schedule=((y2013, 0.05),),
            crl_failure=FailureProfile(blocked=True),
        ),
    ]


#: Issuer names used by the Cloudflare managed-TLS service over time.
COMODO_CRUISELINER_ISSUER = "COMODO ECC DV Secure Server CA 2"
CLOUDFLARE_CA_ISSUER = "CloudFlare ECC CA-2"


def cloudflare_profiles() -> List[CaProfile]:
    """The two issuers of Cloudflare-managed certificates (Figure 5b)."""
    return [
        CaProfile(
            name=COMODO_CRUISELINER_ISSUER,
            operator="Sectigo",  # COMODO became Sectigo
            default_lifetime_days=365,
            max_lifetime_days=825,
            share_schedule=((day(2014, 10, 1), 0.0),),  # driven by the CDN, not the pool
        ),
        CaProfile(
            name=CLOUDFLARE_CA_ISSUER,
            operator="Cloudflare",
            default_lifetime_days=365,
            max_lifetime_days=398,
            share_schedule=((day(2019, 4, 1), 0.0),),
        ),
    ]


class CaRegistry:
    """Instantiated CAs with their CRL publishers, indexed by name."""

    def __init__(self, key_store: KeyStore, established: Day = 0) -> None:
        self._key_store = key_store
        self._established = established
        self._cas: Dict[str, CertificateAuthority] = {}
        self._publishers: Dict[str, CaCrlPublisher] = {}
        self._profiles: Dict[str, CaProfile] = {}
        self.disclosure = DisclosureList()

    def add_profile(self, profile: CaProfile) -> CertificateAuthority:
        if profile.name in self._cas:
            raise ValueError(f"CA {profile.name} already registered")
        policy = IssuancePolicy(
            max_lifetime_days=profile.max_lifetime_days,
            default_lifetime_days=profile.default_lifetime_days,
        )
        ca = CertificateAuthority(
            name=profile.name,
            key_store=self._key_store,
            policy=policy,
            operator=profile.operator,
            established=self._established,
        )
        publisher = CaCrlPublisher(ca)
        self._cas[profile.name] = ca
        self._publishers[profile.name] = publisher
        self._profiles[profile.name] = profile
        self.disclosure.disclose(publisher, endpoints=profile.crl_endpoints)
        return ca

    def ca(self, name: str) -> CertificateAuthority:
        return self._cas[name]

    def publisher(self, name: str) -> CaCrlPublisher:
        return self._publishers[name]

    def publisher_for_authority_key(self, authority_key_id: str) -> Optional[CaCrlPublisher]:
        for ca_name, ca in self._cas.items():
            if ca.authority_key_id == authority_key_id:
                return self._publishers[ca_name]
        return None

    def profile(self, name: str) -> CaProfile:
        return self._profiles[name]

    def all_names(self) -> List[str]:
        return sorted(self._cas)

    def failure_profiles(self) -> Dict[str, FailureProfile]:
        """Operator -> CRL fetch failure profile (for the fetcher).

        Several issuing CAs can share one operator (COMODO's cruise-liner
        issuer belongs to Sectigo); the most failure-prone profile wins so a
        default-profile sibling cannot mask a configured one.
        """
        profiles: Dict[str, FailureProfile] = {}
        for name, profile in self._profiles.items():
            operator = self._cas[name].operator
            existing = profiles.get(operator)
            candidate = profile.crl_failure
            if existing is None or _failure_severity(candidate) > _failure_severity(existing):
                profiles[operator] = candidate
        return profiles

    def pick_pool_ca(self, query_day: Day, rng) -> Optional[CertificateAuthority]:
        """Weighted choice among self-managed-pool CAs active on a day."""
        names: List[str] = []
        weights: List[float] = []
        for name, profile in self._profiles.items():
            weight = profile.weight_on(query_day)
            if weight > 0:
                names.append(name)
                weights.append(weight)
        if not names:
            return None
        return self._cas[rng.weighted_choice(names, weights)]

    def pick_acme_ca(self, query_day: Day, rng) -> Optional[CertificateAuthority]:
        """Weighted choice restricted to ACME-automated CAs."""
        names: List[str] = []
        weights: List[float] = []
        for name, profile in self._profiles.items():
            weight = profile.weight_on(query_day)
            if weight > 0 and profile.acme_automated:
                names.append(name)
                weights.append(weight)
        if not names:
            return None
        return self._cas[rng.weighted_choice(names, weights)]


def _failure_severity(profile: FailureProfile) -> float:
    if profile.blocked:
        return 2.0
    return profile.rate_limit_probability + profile.parse_error_probability


def build_standard_cas(key_store: KeyStore, established: Day = 0) -> CaRegistry:
    """Instantiate the full standard CA set (pool + Cloudflare issuers)."""
    registry = CaRegistry(key_store, established)
    for profile in build_standard_profiles() + cloudflare_profiles():
        registry.add_profile(profile)
    return registry
