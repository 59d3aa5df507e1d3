"""Cloudflare-style managed TLS service.

Reproduces the issuance behaviour the paper observed (Section 5.2):

* **Cruise-liner era** (through early 2019): customer domains are packed
  dozens-at-a-time into shared certificates issued by COMODO; *every*
  enrollment or departure re-issues the batch certificate, producing
  "hundreds of temporally-overlapping certificates" per customer domain that
  "only differ by a handful of inserted or removed domains".
* **Per-domain era** (mid-2019 on): each customer gets an individual
  certificate from Cloudflare's own CA.

All managed certificates carry the ``sni<NNNN>.cloudflaressl.com`` marker
SAN that lets the detector distinguish CDN-managed from customer-uploaded
certificates, and the CDN — not the customer — holds the private keys.

The service also manages the customer's DNS delegation: enrollment points
the domain's NS set at ``*.ns.cloudflare.com``; departure replaces it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.dns.records import RecordType
from repro.dns.zone import ZoneStore
from repro.ecosystem.cas import CLOUDFLARE_CA_ISSUER, COMODO_CRUISELINER_ISSUER, CaRegistry
from repro.ecosystem.timeline import Timeline
from repro.pki.certificate import Certificate
from repro.pki.keys import KeyPair, KeyStore
from repro.util.dates import Day
from repro.util.rng import RngStream

#: Batch capacity for cruise-liner certificates ("dozens of distinct
#: Cloudflare customers in a single certificate").
CRUISELINER_BATCH_SIZE = 32

CLOUDFLARE_NAMESERVERS = ("ada.ns.cloudflare.com", "bob.ns.cloudflare.com")


@dataclass
class CruiselinerBatch:
    """One shared-certificate batch of customer domains."""

    batch_id: int
    sni_label: str
    members: Set[str] = field(default_factory=set)
    current_certificate: Optional[Certificate] = None
    key: Optional[KeyPair] = None

    @property
    def full(self) -> bool:
        return len(self.members) >= CRUISELINER_BATCH_SIZE


class CloudflareService:
    """The managed-TLS CDN: enrollment, issuance, departure."""

    def __init__(
        self,
        registry: CaRegistry,
        key_store: KeyStore,
        zones: ZoneStore,
        timeline: Timeline,
        rng: RngStream,
        party_id: str = "cdn:cloudflare",
    ) -> None:
        self._registry = registry
        self._key_store = key_store
        self._zones = zones
        self._timeline = timeline
        self._rng = rng
        self.party_id = party_id
        self._batches: List[CruiselinerBatch] = []
        self._batch_of: Dict[str, CruiselinerBatch] = {}
        self._per_domain_certs: Dict[str, Certificate] = {}
        self._sni_counter = itertools.count(100000)
        self._batch_counter = itertools.count(1)
        self.issued: List[Certificate] = []
        self.customers: Set[str] = set()

    # -- enrollment / departure ---------------------------------------------

    def enroll(self, domain: str, enroll_day: Day) -> List[Certificate]:
        """Customer delegates the domain to the CDN (NS delegation) and the
        CDN provisions managed TLS. Returns newly issued certificates."""
        if domain in self.customers:
            return []
        self.customers.add(domain)
        self._set_delegation(domain, to_cloudflare=True)
        if self._rng.random() < self._timeline.cruiseliner_share(enroll_day):
            return self._enroll_cruiseliner(domain, enroll_day)
        return [self._issue_per_domain(domain, enroll_day)]

    def depart(self, domain: str, depart_day: Day, new_ns_base: str) -> None:
        """Customer migrates away: delegation changes, CDN keeps the keys.

        The stale-certificate scenario of Section 5.3: nothing is revoked
        and no key custody changes — the CDN simply no longer serves the
        domain it still holds valid certificates for.
        """
        if domain not in self.customers:
            raise KeyError(f"{domain} is not a Cloudflare customer")
        self.customers.discard(domain)
        self._set_delegation(domain, to_cloudflare=False, new_ns_base=new_ns_base)
        batch = self._batch_of.pop(domain, None)
        if batch is not None:
            batch.members.discard(domain)
            if batch.members:
                # Membership change re-issues the shared certificate for the
                # remaining members (the cruise-liner churn of Figure 5b).
                self._reissue_batch(batch, depart_day)
        self._per_domain_certs.pop(domain, None)

    def drop_dead(self, domain: str) -> None:
        """Stop serving/renewing for a domain whose registration lapsed.

        Unlike :meth:`depart`, no DNS change is made (the zone is gone) and
        existing certificates are left to age out naturally.
        """
        self.customers.discard(domain)
        self._per_domain_certs.pop(domain, None)
        batch = self._batch_of.pop(domain, None)
        if batch is not None:
            batch.members.discard(domain)

    def renew_due(self, current_day: Day) -> List[Certificate]:
        """Daily renewal sweep for managed certificates nearing expiry."""
        renewed: List[Certificate] = []
        for batch in self._batches:
            cert = batch.current_certificate
            if cert is None or not batch.members:
                continue
            if cert.not_after - current_day <= 30:
                renewed.append(self._reissue_batch(batch, current_day))
        for domain, cert in list(self._per_domain_certs.items()):
            # Cloudflare rotates managed certificates well before expiry, so
            # a randomly-timed departure leaves the CDN holding a mostly
            # unspent certificate (Figure 6's ~300-day median staleness).
            if cert.not_after - current_day <= 150:
                renewed.append(self._issue_per_domain(domain, current_day))
        return renewed

    # -- queries ------------------------------------------------------------

    def is_customer(self, domain: str) -> bool:
        return domain in self.customers

    def active_certificates_for(self, domain: str, query_day: Day) -> List[Certificate]:
        return [
            cert
            for cert in self.issued
            if cert.is_valid_on(query_day) and domain in cert.fqdns()
        ]

    # -- internals ------------------------------------------------------------

    def _enroll_cruiseliner(self, domain: str, enroll_day: Day) -> List[Certificate]:
        batch = self._open_batch()
        batch.members.add(domain)
        self._batch_of[domain] = batch
        return [self._reissue_batch(batch, enroll_day)]

    def _open_batch(self) -> CruiselinerBatch:
        for batch in self._batches:
            if not batch.full:
                return batch
        batch = CruiselinerBatch(
            batch_id=next(self._batch_counter),
            sni_label=f"sni{next(self._sni_counter)}.cloudflaressl.com",
        )
        self._batches.append(batch)
        return batch

    def _reissue_batch(self, batch: CruiselinerBatch, issue_day: Day) -> Certificate:
        ca = self._registry.ca(COMODO_CRUISELINER_ISSUER)
        if batch.key is None:
            batch.key = self._key_store.generate(self.party_id, issue_day)
        sans = [batch.sni_label, "*." + batch.sni_label]
        for member in sorted(batch.members):
            sans.append(member)
            sans.append("*." + member)
        lifetime = min(365, ca.policy.effective_max(issue_day))
        certificate = ca.issue(
            san_dns_names=sans,
            subject_key=batch.key,
            issuance_day=issue_day,
            lifetime_days=lifetime,
        )
        batch.current_certificate = certificate
        self.issued.append(certificate)
        return certificate

    def _issue_per_domain(self, domain: str, issue_day: Day) -> Certificate:
        ca = self._registry.ca(CLOUDFLARE_CA_ISSUER)
        key = self._key_store.generate(self.party_id, issue_day)
        sni = f"sni{next(self._sni_counter)}.cloudflaressl.com"
        lifetime = min(365, ca.policy.effective_max(issue_day))
        certificate = ca.issue(
            san_dns_names=[sni, domain, "*." + domain],
            subject_key=key,
            issuance_day=issue_day,
            lifetime_days=lifetime,
        )
        self._per_domain_certs[domain] = certificate
        self.issued.append(certificate)
        return certificate

    def _set_delegation(
        self, domain: str, to_cloudflare: bool, new_ns_base: Optional[str] = None
    ) -> None:
        zone = self._zones.get(domain)
        if zone is None:
            zone = self._zones.create(domain)
        if to_cloudflare:
            zone.replace(domain, RecordType.NS, CLOUDFLARE_NAMESERVERS)
        else:
            base = new_ns_base or f"ns.{domain}"
            zone.replace(domain, RecordType.NS, (f"ns1.{base}", f"ns2.{base}"))
