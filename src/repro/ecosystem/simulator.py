"""Event-driven world simulator for the 2013–2023 web PKI.

Runs a day loop over the paper's full CT window, maintaining:

* the registry (registrations, renewals, transfers, the post-expiration
  lifecycle, re-registrations including drop-catch);
* certificate issuance per hosting mode (manual, ACME auto-renewal,
  Cloudflare managed TLS, registrar/hosting-platform SSL);
* CT submission (precertificates + finals into sharded, trusted logs);
* revocations (background key compromise with short issuance-to-compromise
  delays, other reasons, and the scripted GoDaddy November-2021 breach);
* daily DNS delegation state (snapshotted during the paper's scan window);
* CRL publication and the daily fetch during the paper's CRL window.

Everything is driven by one seeded RNG tree, so identical configs produce
identical datasets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.pipeline import DatasetBundle
from repro.core.stale import StalenessClass
from repro.ct.client import CtMonitor
from repro.ct.dedup import CertificateCorpus
from repro.ct.log import CtLog, shard_family
from repro.ct.loglist import LogList, TrustOperator
from repro.dns.records import RecordType
from repro.dns.snapshots import DailySnapshot, DomainObservation, SnapshotStore
from repro.dns.zone import ZoneStore
from repro.ecosystem.cas import CaRegistry, build_standard_cas
from repro.ecosystem.cdn import CloudflareService
from repro.ecosystem.entities import REGISTRARS, HostingMode, Registrant
from repro.ecosystem.events import GroundTruthEvent, GroundTruthEventType
from repro.ecosystem.timeline import Timeline
from repro.ecosystem.workload import WorldConfig
from repro.pki.certificate import Certificate
from repro.pki.keys import KeyStore
from repro.revocation.crl import CertificateRevocationList
from repro.revocation.fetcher import CrlFetcher
from repro.revocation.reasons import RevocationReason
from repro.util.dates import Day
from repro.util.rng import RngStream
from repro.whois.lifecycle import release_day as lifecycle_release_day
from repro.whois.registry import Registry

#: TLD mix for new registrations (com/net are the detector-eligible Verisign
#: registries; org/io exercise the TLD filter).
_TLD_WEIGHTS = (("com", 0.58), ("net", 0.16), ("org", 0.16), ("io", 0.10))

_NAME_ADJECTIVES = (
    "blue", "rapid", "bright", "quiet", "solar", "lucky", "prime", "nova",
    "vivid", "cosmic", "amber", "polar", "urban", "zen", "echo", "delta",
)
_NAME_NOUNS = (
    "forge", "harbor", "labs", "works", "metrics", "garden", "peak", "byte",
    "craft", "media", "cloud", "stack", "market", "studio", "grid", "press",
)


@dataclass
class SimDomain:
    """Mutable simulation state for one registered e2LD."""

    name: str
    registrant_id: str
    hosting: HostingMode
    created: Day
    tls: bool
    alive: bool = True
    current_cert: Optional[Certificate] = None
    generation: int = 0  # bumps on hosting change / re-registration


@dataclass
class WorldDatasets:
    """Everything a simulation run produces (the Table 3 analogue)."""

    config: WorldConfig
    corpus: CertificateCorpus
    log_list: LogList
    crls: List[CertificateRevocationList]
    crl_fetcher: CrlFetcher
    whois_creation_pairs: List[Tuple[str, Day]]
    dns_snapshots: SnapshotStore
    zones: ZoneStore
    registry: Registry
    ca_registry: CaRegistry
    key_store: KeyStore
    ground_truth: List[GroundTruthEvent]
    popularity_ranks: Dict[str, int]
    malicious_ownership: List[Tuple[str, str, Day, Day]]  # domain, owner, start, end
    total_certificates_issued: int

    def to_bundle(self) -> DatasetBundle:
        """Package into the measurement pipeline's input shape."""
        timeline = self.config.timeline
        return DatasetBundle(
            corpus=self.corpus,
            crls=self.crls,
            whois_creation_pairs=self.whois_creation_pairs,
            dns_snapshots=self.dns_snapshots,
            windows={
                StalenessClass.REVOKED_ALL: (
                    timeline.revocation_cutoff,
                    timeline.crl_collection_end,
                ),
                StalenessClass.KEY_COMPROMISE: (
                    timeline.revocation_cutoff,
                    timeline.crl_collection_end,
                ),
                StalenessClass.REGISTRANT_CHANGE: (
                    timeline.registrant_window_start,
                    timeline.registrant_window_end,
                ),
                StalenessClass.MANAGED_TLS_DEPARTURE: (
                    timeline.dns_scan_start,
                    timeline.dns_scan_end,
                ),
            },
        )

    def dataset_summary(self) -> Dict[str, int]:
        """Row counts for the Table 3 reproduction."""
        return {
            "ct_unique_certificates": len(self.corpus),
            "ct_logs": len(self.log_list),
            "crls_collected": len(self.crls),
            "whois_creation_pairs": len(self.whois_creation_pairs),
            "dns_scan_days": len(self.dns_snapshots),
            "registered_domains": sum(1 for _ in self.registry.all_domains()),
            "ground_truth_events": len(self.ground_truth),
        }


class WorldSimulator:
    """Runs the seeded day loop and assembles :class:`WorldDatasets`."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        self.timeline: Timeline = self.config.timeline
        seed = self.config.seed
        self._rng_reg = RngStream(seed, "registrations")
        self._rng_tls = RngStream(seed, "tls")
        self._rng_cdn = RngStream(seed, "cdn")
        self._rng_rev = RngStream(seed, "revocations")
        self._rng_life = RngStream(seed, "lifecycle")
        self._rng_pop = RngStream(seed, "popularity")
        self._rng_ct = RngStream(seed, "ct")
        self._rng_fetch = RngStream(seed, "crl-fetch")

        self.key_store = KeyStore()
        self.zones = ZoneStore()
        self.registry = Registry(operated_tlds=("com", "net", "org", "io"))
        self.ca_registry = build_standard_cas(self.key_store, established=self.timeline.ct_start)
        self.cloudflare = CloudflareService(
            self.ca_registry, self.key_store, self.zones, self.timeline, self._rng_cdn
        )
        self.log_list = self._build_log_infrastructure()
        self.snapshots = SnapshotStore()
        self.ground_truth: List[GroundTruthEvent] = []
        self.popularity_ranks: Dict[str, int] = {}

        self._domains: Dict[str, SimDomain] = {}
        self._alive_names: List[str] = []  # append-only; filtered when sampled
        self._alive_count = 0
        self._registrants: Dict[str, Registrant] = {}
        self._name_counter = 0
        self._total_issued = 0

        # Scheduled-event heaps: (day, sequence, payload).
        self._seq = 0
        self._reg_expiry: List[Tuple[Day, int, str]] = []
        self._releases: List[Tuple[Day, int, str]] = []
        self._re_registrations: List[Tuple[Day, int, str]] = []
        self._cert_renewals: List[Tuple[Day, int, str, int, int]] = []  # name, serial, generation
        self._revocations: List[Tuple[Day, int, int, str, str]] = []  # serial, issuer, reason name

        #: issuance day -> certificates (for compromise sampling). Kept
        #: as a *recency window*: buckets older than the longest issued
        #: lifetime can never yield a valid sample, so they collapse to
        #: a bare count in ``_issued_counts`` (the count preserves the
        #: RNG draw a ``choice`` over the bucket would have consumed).
        self._issued_by_day: Dict[Day, List[Certificate]] = {}
        self._issued_counts: Dict[Day, int] = {}
        self._max_issued_lifetime: int = 0
        #: all unexpired certificates (lazily pruned) for other-reason revocation.
        self._active_certs: List[Certificate] = []
        self._revoked_serials: Set[Tuple[str, int]] = set()

        # DNS state for snapshots (interned observations).
        self._current_obs: Dict[str, DomainObservation] = {}

        #: (enroll day, name) of recent Cloudflare enrollments — CDN churn is
        #: front-loaded (trial customers leave within weeks), which is what
        #: keeps half of managed-TLS departures within ~90 days of the
        #: newest certificate's issuance (Figure 8).
        self._cf_recent_enrollments: List[Tuple[Day, str]] = []

        # CRL collection
        self.crl_fetcher = CrlFetcher(
            self.ca_registry.disclosure,
            self._rng_fetch,
            profiles=self.ca_registry.failure_profiles(),
        )
        self.collected_crls: List[CertificateRevocationList] = []

        self._godaddy_breach_fired = False

    # ------------------------------------------------------------------ run --

    def run(self) -> WorldDatasets:
        start, end = self.timeline.simulation_start, self.timeline.simulation_end
        for current in range(start, end + 1):
            self._step(current)
        corpus = self._collect_ct()
        return WorldDatasets(
            config=self.config,
            corpus=corpus,
            log_list=self.log_list,
            crls=self.collected_crls,
            crl_fetcher=self.crl_fetcher,
            whois_creation_pairs=self._whois_pairs(),
            dns_snapshots=self.snapshots,
            zones=self.zones,
            registry=self.registry,
            ca_registry=self.ca_registry,
            key_store=self.key_store,
            ground_truth=list(self.ground_truth),
            popularity_ranks=dict(self.popularity_ranks),
            malicious_ownership=self._malicious_spans(),
            total_certificates_issued=self._total_issued,
        )

    # ------------------------------------------------------------- day loop --

    def _step(self, current: Day) -> None:
        self._prune_issuance_window(current)
        self._process_registration_expiries(current)
        self._process_releases(current)
        self._process_re_registrations(current)
        self._process_cert_renewals(current)
        self._process_scheduled_revocations(current)
        self._new_registrations(current)
        self._transfers(current)
        self._cdn_enrollments(current)
        self._cdn_departures(current)
        self._background_compromises(current)
        self._other_revocations(current)
        if current % 7 == 0:
            for certificate in self.cloudflare.renew_due(current):
                self._record_issuance(certificate, current, renewal=True)
        if self._should_fire_godaddy_breach(current):
            self._fire_godaddy_breach(current)
        if self.timeline.in_dns_scan_window(current):
            self.snapshots.put(
                DailySnapshot.from_observations(
                    current, self._scan_observations(current)
                )
            )
        if self.timeline.in_crl_window(current):
            result = self.crl_fetcher.fetch_day(current)
            self.collected_crls.extend(result.crls)

    def _scan_observations(self, current: Day) -> Dict[str, "DomainObservation"]:
        """One day's scan results: the live zone minus transient losses.

        Each loss draw comes from a ``("dns-loss", day, apex)`` fork of
        the lifecycle stream, not the stream itself. Drawing inline
        (the previous behaviour) consumed one lifecycle draw per alive
        domain, so *whether an unrelated domain existed* shifted every
        subsequent lifecycle decision — and a domain's own scan-loss
        outcome depended on the rest of the population. Forking keeps
        the outcome a pure function of (seed, day, apex).
        """
        observations = self._current_obs
        loss_rate = self.config.dns_scan_loss_rate
        if loss_rate <= 0:
            return observations
        # Transient per-domain lookup failures: the domain simply does
        # not appear in that day's snapshot.
        return {
            apex: obs
            for apex, obs in observations.items()
            if not self._rng_life.split(
                "dns-loss", str(current), apex
            ).bernoulli(loss_rate)
        }

    # -------------------------------------------------------- registrations --

    def _new_registrations(self, current: Day) -> None:
        count = self._rng_reg.poisson(self.config.registration_rate(current))
        for _ in range(count):
            name = self._fresh_name()
            registrant = self._fresh_registrant()
            self._register_domain(name, registrant, current, is_re_registration=False)

    def _fresh_name(self) -> str:
        self._name_counter += 1
        adjective = self._rng_reg.choice(_NAME_ADJECTIVES)
        noun = self._rng_reg.choice(_NAME_NOUNS)
        tld = self._rng_reg.weighted_choice(
            [t for t, _ in _TLD_WEIGHTS], [w for _, w in _TLD_WEIGHTS]
        )
        return f"{adjective}{noun}{self._name_counter}.{tld}"

    def _fresh_registrant(self) -> Registrant:
        malicious = self._rng_life.bernoulli(self.config.malicious_registrant_probability)
        registrant = Registrant.fresh(malicious=malicious)
        self._registrants[registrant.registrant_id] = registrant
        return registrant

    def _register_domain(
        self, name: str, registrant: Registrant, current: Day, is_re_registration: bool
    ) -> SimDomain:
        registrar = self._rng_reg.choice(REGISTRARS)
        self.registry.register(
            name, registrant.registrant_id, registrar, current,
            term_days=self.config.registration_term_days,
        )
        hosting = self._choose_hosting(current)
        tls = self._rng_tls.bernoulli(self.config.tls_adoption(current))
        previous = self._domains.get(name)
        domain = SimDomain(
            name=name,
            registrant_id=registrant.registrant_id,
            hosting=hosting,
            created=current,
            tls=tls,
            generation=(previous.generation + 1) if previous else 0,
        )
        self._domains[name] = domain
        self._alive_names.append(name)
        self._alive_count += 1
        if name not in self.popularity_ranks:
            rank = self._draw_popularity_rank()
            if rank is not None:
                self.popularity_ranks[name] = rank
        self._push(self._reg_expiry, current + self.config.registration_term_days, name)
        self._set_self_delegation(domain, current)
        self._emit(
            GroundTruthEventType.DOMAIN_RE_REGISTERED
            if is_re_registration
            else GroundTruthEventType.DOMAIN_REGISTERED,
            current,
            domain=name,
            party_id=registrant.registrant_id,
        )
        if tls:
            self._deploy_tls(domain, current)
        return domain

    def _choose_hosting(self, current: Day) -> HostingMode:
        mix = self.config.hosting_mix(current)
        modes = list(mix)
        return self._rng_tls.weighted_choice(modes, [mix[m] for m in modes])

    # ----------------------------------------------------------- lifecycle --

    def _process_registration_expiries(self, current: Day) -> None:
        for name in self._pop_due(self._reg_expiry, current):
            domain = self._domains.get(name)
            if domain is None or not domain.alive:
                continue
            registration = self.registry.current(name)
            if registration is None or registration.expiration_date != current:
                # Renewed/transferred meanwhile; reschedule from the registry.
                if registration is not None and registration.expiration_date > current:
                    self._push(self._reg_expiry, registration.expiration_date, name)
                continue
            if self._rng_life.bernoulli(self.config.renew_probability):
                self.registry.renew(name, current, self.config.registration_term_days)
                self._push(
                    self._reg_expiry, current + self.config.registration_term_days, name
                )
                self._emit(GroundTruthEventType.DOMAIN_RENEWED, current, domain=name)
            else:
                self._lapse(domain, current)

    def _lapse(self, domain: SimDomain, current: Day) -> None:
        """Registrant walks away: schedule registry release and maybe re-reg."""
        domain.alive = False
        self._alive_count -= 1
        release = lifecycle_release_day(current)
        self._push(self._releases, release, domain.name)
        self._emit(GroundTruthEventType.DOMAIN_EXPIRED_LAPSED, current, domain=domain.name)
        if domain.name in self.cloudflare.customers:
            # The CDN stops serving (and renewing for) a dead zone; its
            # already-issued certificates remain valid until they expire.
            self.cloudflare.drop_dead(domain.name)
        self._current_obs.pop(domain.name, None)

    def _process_releases(self, current: Day) -> None:
        for name in self._pop_due(self._releases, current):
            registration = self.registry.current(name)
            if registration is None or registration.expiration_date >= current:
                continue  # restored in the meantime
            self.registry.delete(name, current)
            self.zones.drop(name)
            if self._rng_life.bernoulli(self.config.re_registration_probability):
                if self._rng_life.bernoulli(self.config.drop_catch_probability):
                    rereg_day = current  # drop-catch services move instantly
                else:
                    rereg_day = current + self._rng_life.bounded_pareto_days(
                        1, self.config.re_registration_max_delay
                    )
                if rereg_day <= self.timeline.simulation_end:
                    self._push(self._re_registrations, rereg_day, name)

    def _process_re_registrations(self, current: Day) -> None:
        for name in self._pop_due(self._re_registrations, current):
            if self.registry.current(name) is not None:
                continue
            registrant = self._fresh_registrant()
            self._register_domain(name, registrant, current, is_re_registration=True)

    def _transfers(self, current: Day) -> None:
        alive = self._alive_count_estimate()
        expected = self.config.transfer_rate_per_1k * alive / 1000.0
        for _ in range(self._rng_life.poisson(expected)):
            domain = self._sample_alive()
            if domain is None:
                continue
            new_owner = self._fresh_registrant()
            previous = domain.registrant_id
            self.registry.transfer(domain.name, new_owner.registrant_id, current)
            domain.registrant_id = new_owner.registrant_id
            self._emit(
                GroundTruthEventType.DOMAIN_TRANSFERRED,
                current,
                domain=domain.name,
                party_id=new_owner.registrant_id,
                detail=f"from={previous}",
            )

    # ------------------------------------------------------------- TLS / CT --

    def _deploy_tls(self, domain: SimDomain, current: Day) -> None:
        if domain.hosting is HostingMode.CLOUDFLARE_MANAGED:
            self._delegate_to_cloudflare(domain, current)
            return
        certificate = self._issue_for(domain, current)
        if certificate is not None:
            domain.current_cert = certificate
            self._schedule_renewal(domain, certificate)

    def _issue_for(self, domain: SimDomain, current: Day) -> Optional[Certificate]:
        """Issue via the hosting mode's CA; returns None when no CA exists
        yet (pre-Let's Encrypt ACME, for example)."""
        if domain.hosting is HostingMode.SELF_ACME:
            ca = self.ca_registry.pick_acme_ca(current, self._rng_tls)
        elif domain.hosting is HostingMode.HOSTING_PLATFORM:
            try:
                ca = self.ca_registry.ca("cPanel, Inc. CA")
                if self.ca_registry.profile("cPanel, Inc. CA").weight_on(current) <= 0:
                    ca = self.ca_registry.pick_pool_ca(current, self._rng_tls)
            except KeyError:
                ca = None
        elif domain.hosting is HostingMode.REGISTRAR_MANAGED:
            ca = self.ca_registry.ca("GoDaddy Secure CA - G2")
        else:
            ca = self.ca_registry.pick_pool_ca(current, self._rng_tls)
        if ca is None:
            return None
        owner = (
            f"host:{domain.hosting.value}"
            if domain.hosting.is_managed_tls
            else domain.registrant_id
        )
        key = self.key_store.generate(owner, current)
        sans = [domain.name, f"www.{domain.name}"]
        lifetime = min(ca.policy.default_lifetime_days, ca.policy.effective_max(current))
        certificate = ca.issue(
            san_dns_names=sans,
            subject_key=key,
            issuance_day=current,
            lifetime_days=lifetime,
        )
        self._record_issuance(certificate, current)
        return certificate

    def _schedule_renewal(self, domain: SimDomain, certificate: Certificate) -> None:
        if domain.hosting in (HostingMode.SELF_ACME, HostingMode.HOSTING_PLATFORM):
            renew_day = certificate.not_before + (certificate.lifetime_days * 2) // 3
        else:
            renew_day = certificate.not_after
        if renew_day <= self.timeline.simulation_end:
            self._seq += 1
            heapq.heappush(
                self._cert_renewals,
                (renew_day, self._seq, domain.name, certificate.serial, domain.generation),
            )

    def _process_cert_renewals(self, current: Day) -> None:
        while self._cert_renewals and self._cert_renewals[0][0] <= current:
            _, _, name, serial, generation = heapq.heappop(self._cert_renewals)
            domain = self._domains.get(name)
            if (
                domain is None
                or domain.generation != generation
                or domain.current_cert is None
                or domain.current_cert.serial != serial
            ):
                continue
            # Renewal keeps working while the registration (and thus DNS)
            # still exists — including the post-expiration grace period.
            # This is Section 7.1's "automatic issuance" amplifier: certbot
            # happily extends the name-to-key mapping of a domain whose
            # registrant has already walked away.
            if not domain.alive and self.registry.current(name) is None:
                continue
            automated = domain.hosting in (
                HostingMode.SELF_ACME,
                HostingMode.HOSTING_PLATFORM,
                HostingMode.REGISTRAR_MANAGED,
            )
            if not automated and not self._rng_tls.bernoulli(
                self.config.manual_renew_probability
            ):
                continue
            certificate = self._issue_for(domain, current)
            if certificate is not None:
                domain.current_cert = certificate
                self._schedule_renewal(domain, certificate)
                self._emit(
                    GroundTruthEventType.CERT_RENEWED,
                    current,
                    domain=name,
                    certificate_serial=certificate.serial,
                )

    def _record_issuance(
        self, certificate: Certificate, current: Day, renewal: bool = False
    ) -> None:
        self._total_issued += 1
        self._issued_by_day.setdefault(current, []).append(certificate)
        if certificate.lifetime_days > self._max_issued_lifetime:
            self._max_issued_lifetime = certificate.lifetime_days
        self._active_certs.append(certificate)
        self._submit_to_ct(certificate, current)
        if not renewal:
            self._emit(
                GroundTruthEventType.CERT_ISSUED,
                current,
                certificate_serial=certificate.serial,
            )

    def _submit_to_ct(self, certificate: Certificate, current: Day) -> None:
        logs = self._accepting_logs(certificate, current)
        if not logs:
            return
        precert = certificate.as_precertificate()
        targets = logs if len(logs) <= 2 else self._rng_ct.sample(logs, 2)
        scts = []
        for log in targets:
            scts.append(log.submit(precert, current).token())
        final = certificate.with_scts(scts)
        # Roughly half of final certificates are also submitted by crawlers.
        if self._rng_ct.bernoulli(0.5):
            targets[0].submit(final, current)

    def _accepting_logs(self, certificate: Certificate, current: Day) -> List[CtLog]:
        trusted = self._trusted_logs_cached(current)
        return [log for log in trusted if log.sharding.accepts(certificate)]

    def _trusted_logs_cached(self, current: Day) -> List[CtLog]:
        cached = getattr(self, "_trust_cache", None)
        if cached is not None and cached[0] == current:
            return cached[1]
        logs = self.log_list.logs_trusted_on(current)
        self._trust_cache = (current, logs)
        return logs

    # ------------------------------------------------------------------ CDN --

    def _delegate_to_cloudflare(self, domain: SimDomain, current: Day) -> None:
        issued = self.cloudflare.enroll(domain.name, current)
        for certificate in issued:
            self._record_issuance(certificate, current)
        self._set_cloudflare_delegation(domain)
        self._cf_recent_enrollments.append((current, domain.name))
        self._emit(
            GroundTruthEventType.MANAGED_TLS_ENROLLED, current, domain=domain.name
        )

    def _cdn_enrollments(self, current: Day) -> None:
        eligible = self.cloudflare.customers
        expected = (
            self.config.cdn_enrollment_rate_per_1k
            * max(0, self._alive_count_estimate() - len(eligible))
            / 1000.0
        )
        for _ in range(self._rng_cdn.poisson(expected)):
            domain = self._sample_alive()
            if domain is None or not domain.tls:
                continue
            if domain.hosting is HostingMode.CLOUDFLARE_MANAGED:
                continue
            domain.hosting = HostingMode.CLOUDFLARE_MANAGED
            domain.generation += 1
            domain.current_cert = None
            self._delegate_to_cloudflare(domain, current)
            self._emit(
                GroundTruthEventType.HOSTING_CHANGED,
                current,
                domain=domain.name,
                detail="to=cloudflare",
            )

    def _cdn_departures(self, current: Day) -> None:
        customers = self.cloudflare.customers
        expected = self.config.cdn_departure_rate_per_1k * len(customers) / 1000.0
        count = self._rng_cdn.poisson(expected)
        if count <= 0 or not customers:
            return
        # Trim the recent-enrollment window to ~90 days.
        horizon = current - 90
        while self._cf_recent_enrollments and self._cf_recent_enrollments[0][0] < horizon:
            self._cf_recent_enrollments.pop(0)
        chosen: List[str] = []
        recent = [name for _, name in self._cf_recent_enrollments if name in customers]
        for _ in range(min(count, len(customers))):
            if recent and self._rng_cdn.bernoulli(self.config.cdn_early_churn_share):
                name = self._rng_cdn.choice(recent)
            else:
                name = self._rng_cdn.choice(sorted(customers))
            if name not in chosen:
                chosen.append(name)
        for name in chosen:
            domain = self._domains.get(name)
            if domain is None or not domain.alive:
                self.cloudflare.customers.discard(name)
                continue
            new_host = f"hosting-{self._rng_cdn.randint(1, 40)}.net"
            self.cloudflare.depart(name, current, new_host)
            domain.hosting = (
                HostingMode.SELF_ACME
                if self._rng_cdn.bernoulli(0.6)
                else HostingMode.SELF_MANUAL
            )
            domain.generation += 1
            domain.current_cert = None
            self._set_self_delegation(domain, current, ns_base=new_host)
            self._emit(
                GroundTruthEventType.MANAGED_TLS_DEPARTED,
                current,
                domain=name,
                detail=f"to={new_host}",
            )
            if self._rng_cdn.bernoulli(self.config.post_departure_reissue_probability):
                certificate = self._issue_for(domain, current)
                if certificate is not None:
                    domain.current_cert = certificate
                    self._schedule_renewal(domain, certificate)

    # ---------------------------------------------------------- revocations --

    def _background_compromises(self, current: Day) -> None:
        expected = self.config.key_compromise_rate(current)
        for _ in range(self._rng_rev.poisson(expected)):
            certificate = self._sample_recently_issued(current)
            if certificate is None:
                continue
            key = (certificate.authority_key_id, certificate.serial)
            if key in self._revoked_serials:
                continue
            attacker = f"attacker-{self._rng_rev.randint(1, 10 ** 6)}"
            self.key_store.grant(
                certificate.subject_key, attacker, current, reason="compromise"
            )
            self._emit(
                GroundTruthEventType.KEY_COMPROMISED,
                current,
                certificate_serial=certificate.serial,
                party_id=attacker,
            )
            lag = self._rng_rev.randint(0, self.config.revocation_lag_max_days)
            self._schedule_revocation(
                certificate, current + lag, RevocationReason.KEY_COMPROMISE
            )

    def _sample_recently_issued(self, current: Day) -> Optional[Certificate]:
        """Pick a certificate whose age follows the short compromise delay.

        Long-lived (manually handled) keys are preferred: ephemeral 90-day
        ACME keys live inside automation and leak far less often than keys
        that administrators copy around — which is also what makes reported
        key-compromise staleness so long (Figure 6's ~398-day median).
        """
        fallback: Optional[Certificate] = None
        for _ in range(8):
            age = int(self._rng_rev.expovariate(1.0 / self.config.compromise_delay_mean_days))
            issue_day = current - age
            candidates = self._issued_by_day.get(issue_day)
            if candidates is None:
                pruned = self._issued_counts.get(issue_day)
                if pruned:
                    # The bucket aged out of the validity window: every
                    # certificate in it fails is_valid_on(current).
                    # Consume the one draw choice() would have (both
                    # are a single _randbelow over the bucket size) so
                    # pruning never perturbs the stream.
                    self._rng_rev.randint(0, pruned - 1)
                continue
            certificate = self._rng_rev.choice(candidates)
            if not certificate.is_valid_on(current):
                continue
            if certificate.subject_key.owner_id.startswith("cdn:"):
                continue  # CDN-managed keys never leave the CDN's HSMs
            if certificate.lifetime_days >= 180:
                return certificate
            fallback = certificate
        if fallback is not None and self._rng_rev.bernoulli(0.3):
            return fallback
        return None

    def _other_revocations(self, current: Day) -> None:
        expected = self.config.other_revocation_rate(current)
        reasons = (
            RevocationReason.SUPERSEDED,
            RevocationReason.CESSATION_OF_OPERATION,
            RevocationReason.UNSPECIFIED,
            RevocationReason.AFFILIATION_CHANGED,
        )
        weights = (0.45, 0.33, 0.17, 0.05)
        for _ in range(self._rng_rev.poisson(expected)):
            certificate = self._sample_active_cert(current)
            if certificate is None:
                continue
            if (certificate.authority_key_id, certificate.serial) in self._revoked_serials:
                continue
            reason = self._rng_rev.weighted_choice(reasons, weights)
            self._schedule_revocation(certificate, current, reason)

    def _prune_issuance_window(self, current: Day) -> None:
        """Collapse issuance buckets that can no longer yield a sample.

        A bucket from day *d* only matters to ``_sample_recently_issued``
        while some certificate in it is still valid, i.e. while
        ``d + lifetime >= current``; past ``current - max lifetime`` the
        whole bucket is dead weight. Day buckets are created by the day
        loop in increasing order, so dict order is chronological and the
        prune is a pop-from-the-front. (``_active_certs`` needs no such
        window: ``_sample_active_cert`` already swap-removes expired
        entries, and changing its layout would perturb its draws.)
        """
        cutoff = current - self._max_issued_lifetime
        while self._issued_by_day:
            head = next(iter(self._issued_by_day))
            if head >= cutoff:
                break
            self._issued_counts[head] = len(self._issued_by_day.pop(head))

    def _sample_active_cert(self, current: Day) -> Optional[Certificate]:
        while self._active_certs:
            index = self._rng_rev.randint(0, len(self._active_certs) - 1)
            certificate = self._active_certs[index]
            if certificate.is_valid_on(current):
                return certificate
            # Expired: swap-remove to keep the pool compact.
            self._active_certs[index] = self._active_certs[-1]
            self._active_certs.pop()
        return None

    def _schedule_revocation(
        self, certificate: Certificate, when: Day, reason: RevocationReason
    ) -> None:
        key = (certificate.authority_key_id, certificate.serial)
        if key in self._revoked_serials:
            return
        self._revoked_serials.add(key)
        effective = self._adjust_reason_for_reporting(certificate, when, reason)
        self._seq += 1
        heapq.heappush(
            self._revocations,
            (when, self._seq, certificate.serial, certificate.issuer_name, effective.name),
        )

    def _adjust_reason_for_reporting(
        self, certificate: Certificate, when: Day, reason: RevocationReason
    ) -> RevocationReason:
        """Let's Encrypt only began *publishing* keyCompromise reason codes in
        July 2022 (Figure 4); earlier ISRG revocations are reported under a
        generic reason even when the cause was compromise."""
        if reason is not RevocationReason.KEY_COMPROMISE:
            return reason
        if (
            certificate.issuer_name.startswith("Let's Encrypt")
            and when < self.timeline.lets_encrypt_kc_reporting_start
        ):
            return RevocationReason.SUPERSEDED
        return reason

    def _process_scheduled_revocations(self, current: Day) -> None:
        while self._revocations and self._revocations[0][0] <= current:
            when, _, serial, issuer_name, reason_name = heapq.heappop(self._revocations)
            try:
                publisher = self.ca_registry.publisher(issuer_name)
            except KeyError:
                continue
            certificate = publisher.ca.find_by_serial(serial)
            if certificate is None:
                continue
            if certificate.not_after < when:
                continue  # expired before the CA processed it
            publisher.revoke(certificate, when, RevocationReason[reason_name])
            self._emit(
                GroundTruthEventType.CERT_REVOKED,
                when,
                certificate_serial=serial,
                detail=f"reason={reason_name.lower()}",
            )

    def _should_fire_godaddy_breach(self, current: Day) -> bool:
        return (
            not self._godaddy_breach_fired
            and current == self.timeline.godaddy_breach_disclosure
        )

    def _fire_godaddy_breach(self, current: Day) -> None:
        """The November 2021 managed-WordPress breach: a large batch of
        GoDaddy-issued keys is exposed; revocations roll out over ~6 weeks."""
        self._godaddy_breach_fired = True
        godaddy = self.ca_registry.ca("GoDaddy Secure CA - G2")
        exposure_start = self.timeline.godaddy_breach_exposure_start
        exposed = [
            certificate
            for certificate in godaddy.issued()
            if exposure_start <= certificate.not_before <= current
            and certificate.is_valid_on(current)
            and self._rng_rev.bernoulli(self.config.godaddy_breach_exposure_fraction)
        ]
        end = self.timeline.godaddy_breach_revocation_end
        for certificate in exposed:
            self.key_store.grant(
                certificate.subject_key, "attacker:godaddy-breach", current,
                reason="breach",
            )
            when = self._rng_rev.randint(current, end)
            self._schedule_revocation(certificate, when, RevocationReason.KEY_COMPROMISE)
        self._emit(
            GroundTruthEventType.KEY_COMPROMISED,
            current,
            party_id="attacker:godaddy-breach",
            detail=f"breach_certificates={len(exposed)}",
        )

    # ------------------------------------------------------------------ DNS --

    def _set_self_delegation(
        self, domain: SimDomain, current: Day, ns_base: Optional[str] = None
    ) -> None:
        base = ns_base or f"dns-{1 + (sum(ord(c) for c in domain.name) % 12)}.net"
        obs = DomainObservation(domain.name)
        obs.set(RecordType.NS, (f"ns1.{base}", f"ns2.{base}"))
        obs.set(RecordType.A, (self._stable_ip(domain.name, domain.generation),))
        self._current_obs[domain.name] = obs

    def _set_cloudflare_delegation(self, domain: SimDomain) -> None:
        from repro.ecosystem.cdn import CLOUDFLARE_NAMESERVERS

        obs = DomainObservation(domain.name)
        obs.set(RecordType.NS, CLOUDFLARE_NAMESERVERS)
        obs.set(RecordType.A, ("104.16.1.1",))
        self._current_obs[domain.name] = obs

    def _draw_popularity_rank(self) -> Optional[int]:
        """Top-1M membership for a new domain.

        Most domains never enter the top lists (the paper finds only ~2.5%
        of stale-certificate domains in any biannual Alexa sample). Among
        ranked domains the mass sits in the long tail, with a thin
        log-uniform head so Top-1K rows are populated.
        """
        if not self._rng_pop.bernoulli(0.08):
            return None
        if self._rng_pop.bernoulli(0.15):
            return max(1, int(10 ** self._rng_pop.uniform(0.0, 6.0)))
        return self._rng_pop.randint(1, 1_000_000)

    @staticmethod
    def _stable_ip(name: str, generation: int) -> str:
        # Built-in str hashing is salted per process; fold bytes instead so
        # identical seeds yield identical worlds across runs.
        digest = 17
        for ch in name:
            digest = (digest * 31 + ord(ch)) & 0xFFFFFFFF
        digest = (digest + generation * 7919) & 0xFFFFFFFF
        return f"198.51.{digest % 250}.{(digest // 250) % 250}"

    # ----------------------------------------------------------- CT corpus --

    def _build_log_infrastructure(self) -> LogList:
        log_list = LogList()
        timeline = self.timeline
        unsharded = [
            ("pilot", "Google", timeline.ct_start),
            ("rocketeer", "Google", timeline.ct_start + 400),
            ("digicert-ct1", "DigiCert", timeline.ct_start + 700),
            ("symantec-vega", "Symantec", timeline.ct_start + 500),
        ]
        for log_id, operator, trusted_from in unsharded:
            log = CtLog(log_id, operator)
            log_list.add_log(log)
            log_list.trust(log_id, TrustOperator.CHROME, trusted_from)
        # Symantec's log was distrusted along with its CA (paper cites the
        # community's assertive responses, [62]).
        log_list.distrust("symantec-vega", TrustOperator.CHROME, timeline.limit_825_effective)
        for family, operator in (("argon", "Google"), ("yeti", "DigiCert"), ("nimbus", "Cloudflare")):
            for log in shard_family(family, operator, 2019, 2025):
                log_list.add_log(log)
                log_list.trust(log.log_id, TrustOperator.CHROME, timeline.limit_825_effective)
                log_list.trust(log.log_id, TrustOperator.APPLE, timeline.limit_398_effective)
        return log_list

    def _collect_ct(self) -> CertificateCorpus:
        monitor = CtMonitor(self.log_list, audit=False)
        monitor.poll_all()
        return monitor.finalize_corpus()

    # ---------------------------------------------------------------- WHOIS --

    def _whois_pairs(self) -> List[Tuple[str, Day]]:
        """(domain, creation date) pairs as observable from crawls in the
        paper's WHOIS window: spans already deleted before the window never
        appear; creation dates after the window are unobservable."""
        timeline = self.timeline
        pairs: List[Tuple[str, Day]] = []
        for name in self.registry.all_domains():
            for span in self.registry.spans(name):
                if span.creation_date > timeline.whois_end:
                    continue
                if span.deleted_on is not None and span.deleted_on < timeline.whois_start:
                    continue
                pairs.append((name, span.creation_date))
        return pairs

    def _malicious_spans(self) -> List[Tuple[str, str, Day, Day]]:
        spans: List[Tuple[str, str, Day, Day]] = []
        for name in self.registry.all_domains():
            for span in self.registry.spans(name):
                registrant = self._registrants.get(span.registrant_id)
                if registrant is None or not registrant.malicious:
                    continue
                end = span.deleted_on if span.deleted_on is not None else self.timeline.simulation_end
                spans.append((name, span.registrant_id, span.creation_date, end))
        return spans

    # ---------------------------------------------------------------- misc --

    def _emit(
        self,
        event_type: GroundTruthEventType,
        when: Day,
        domain: Optional[str] = None,
        certificate_serial: Optional[int] = None,
        party_id: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self.ground_truth.append(
            GroundTruthEvent(
                event_type=event_type,
                day=when,
                domain=domain,
                certificate_serial=certificate_serial,
                party_id=party_id,
                detail=detail,
            )
        )

    def _push(self, heap: List[Tuple[Day, int, str]], when: Day, name: str) -> None:
        self._seq += 1
        heapq.heappush(heap, (when, self._seq, name))

    @staticmethod
    def _pop_due(heap: List[Tuple[Day, int, str]], current: Day) -> List[str]:
        due: List[str] = []
        while heap and heap[0][0] <= current:
            due.append(heapq.heappop(heap)[2])
        return due

    def _alive_count_estimate(self) -> int:
        return self._alive_count

    def _sample_alive(self) -> Optional[SimDomain]:
        for _ in range(12):
            if not self._alive_names:
                return None
            index = self._rng_life.randint(0, len(self._alive_names) - 1)
            domain = self._domains.get(self._alive_names[index])
            if domain is not None and domain.alive:
                return domain
            self._alive_names[index] = self._alive_names[-1]
            self._alive_names.pop()
        return None


def simulate_world(config: Optional[WorldConfig] = None) -> WorldDatasets:
    """Convenience: run a full simulation with the given (or default) config."""
    return WorldSimulator(config).run()
