"""Streaming world generation: lazily-emitted worlds at 100x scale.

:class:`~repro.ecosystem.simulator.WorldSimulator` materialises every
domain, certificate, and snapshot before anything is written, which
caps ``--scale`` at 10^4-10^5 objects. This module generates the same
*kind* of world — registrations, renewals, re-registration churn,
per-hosting-mode certificate chains, Cloudflare managed-TLS enrollment
and departure, background and breach revocations, daily DNS delegation
snapshots, WHOIS visibility — as a **per-domain decomposable** process
that streams schema-shaped rows straight into the columnar data plane
(:mod:`repro.data.streamwrite`), so peak RSS is O(shard), not O(world).
A domain's DNS observations leave as runs: one row per stretch of
consecutive scan days (``GenPlan.dns_days``, the bundle's scan calendar)
with unchanged records, ended by a scan loss or a delegation change.

Determinism and population-invariance come from labelled RNG forks
instead of one shared sequential stream:

* the day-by-day registration plan draws from
  ``split_seed(seed, "streamgen", "plan", day)``, one reseed of a
  single ``random.Random`` per day;
* every domain's entire lifecycle draws from its own
  ``split_seed(seed, "streamgen", "domain", index)`` fork, so a
  domain's fate never depends on how many other domains exist;
* cross-cutting events fork per entity: DNS scan losses from
  ``("streamgen", "dns-loss", apex, day)``, and the scripted GoDaddy
  breach from ``("streamgen", "breach", serial)``. An apex hashes its
  ``dns-loss`` prefix once (:class:`~repro.util.rng.ForkPrefix`), and
  each scan day's draw hashes only the day's label onto it, encoded
  once per world in ``GenContext.dns_day_suffixes``, and compares the
  draw's bytes with the loss rate's exact byte bound
  (:func:`~repro.util.rng.draw_bound`).

Everything a draw reads that depends only on the config — the
registration plan, the CA-pool and hosting-mix weights of each
schedule era, the loss bound — is computed once per save in
:class:`GenContext`, so a draw costs one ``bisect`` and one ``random``
call. Each table holds exactly the ``accumulate``d weights
``random.choices`` would build from the schedule on that day, so the
draws, and the bundle bytes, are those of reading the schedules per
draw.

Because the row streams depend only on the config (never on shard
count or process layout), sharded generation is reproducible: any K
produces byte-identical bundles, which the equivalence suite checks
against the materialised reference path for K in {1, 4}.

The generator is a *new* generation model sharing the simulator's
configuration, timeline, CA mix, and staleness mechanics; it is not a
draw-for-draw port of the day-loop simulator (whose cross-domain
coupling — shared heaps, batch certificates, population-dependent
sampling — is exactly what prevents O(shard) decomposition).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    Callable, Dict, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar,
)

from repro.core.stale import StalenessClass
from repro.data import schema
from repro.data.append import ExternalSorter
from repro.data.streamwrite import StreamingDatasetWriter, batched, write_rows_dataset
from repro.ecosystem.cas import (
    CLOUDFLARE_CA_ISSUER,
    COMODO_CRUISELINER_ISSUER,
    build_standard_profiles,
)
from repro.ecosystem.cdn import CLOUDFLARE_NAMESERVERS
from repro.ecosystem.entities import HostingMode
from repro.ecosystem.simulator import _NAME_ADJECTIVES, _NAME_NOUNS, _TLD_WEIGHTS
from repro.ecosystem.workload import WorldConfig
from repro.pki.certificate import KeyUsage, lifetime_limit_on
from repro.pki.keys import KeyAlgorithm
from repro.revocation.reasons import RevocationReason
from repro.util.dates import Day
from repro.util.rng import (
    ForkPrefix, RngStream, draw_bound, label_suffix, poisson, split_seed,
)
from repro.whois.lifecycle import release_day as lifecycle_release_day

#: Default cap on DNS observations (apex-scan-day pairs, not the stored
#: runs they coalesce into); the scan-day stride is chosen
#: deterministically from the planned population to stay under it.
DEFAULT_DNS_ROW_BUDGET = 4_000_000

#: Rough share of ever-registered domains still alive during the 2022
#: scan window (used only to pick the DNS stride, never for content).
_DNS_ALIVE_FRACTION = 0.38

#: Calibration: average certificates issued per domain registration at
#: scale 1 (ties the per-world daily revocation-rate schedules to
#: per-certificate probabilities; see EXPERIMENTS.md).
_CERTS_PER_REGISTRATION = 6.0

#: Serial-number stride per domain index; also the per-domain cert cap.
_SERIALS_PER_DOMAIN = 256

#: Hard per-domain issuance guard (renewal chains are far shorter).
_MAX_CERTS_PER_DOMAIN = 250

_KU_VALUE = int((KeyUsage.DIGITAL_SIGNATURE | KeyUsage.KEY_ENCIPHERMENT).value)
_EKU_VALUES = ["serverAuth"]
_KEY_ALGORITHM = KeyAlgorithm.ECDSA_P256.value
_CLOUDFLARE_E2LD = "cloudflaressl.com"

_OTHER_REASONS = (
    RevocationReason.SUPERSEDED,
    RevocationReason.CESSATION_OF_OPERATION,
    RevocationReason.UNSPECIFIED,
    RevocationReason.AFFILIATION_CHANGED,
)
_OTHER_CUM_WEIGHTS = tuple(accumulate((0.45, 0.33, 0.17, 0.05)))

_TLDS = tuple(tld for tld, _ in _TLD_WEIGHTS)
_TLD_CUM_WEIGHTS = tuple(accumulate(weight for _, weight in _TLD_WEIGHTS))

_TWO_POW_64 = float(1 << 64)

_AUTOMATED_RENEWAL = (HostingMode.SELF_ACME, HostingMode.HOSTING_PLATFORM)
_AUTO_RENEW_MODES = (
    HostingMode.SELF_ACME,
    HostingMode.HOSTING_PLATFORM,
    HostingMode.REGISTRAR_MANAGED,
)

_GODADDY_CA_NAME = "GoDaddy Secure CA - G2"


V = TypeVar("V")


class EraTable(Generic[V]):
    """A value that changes only on schedule breakpoints, tabulated once.

    ``at(day)`` equals ``value_on(day)`` for every day ordinal (>= 1)
    when *value_on* is constant from each breakpoint up to the next and
    before the first: it is ``value_on`` of the last breakpoint on or
    before *day*, or of day 0 ahead of them all.
    """

    __slots__ = ("_starts", "_values")

    def __init__(self, breakpoints: Iterable[Day], value_on: Callable[[Day], V]) -> None:
        self._starts: Tuple[Day, ...] = tuple(sorted({0, *breakpoints}))
        self._values: Tuple[V, ...] = tuple(value_on(start) for start in self._starts)

    def at(self, query_day: Day) -> V:
        return self._values[bisect_right(self._starts, query_day) - 1]


#: A hosting mix as its modes and their cumulative weights.
_HostingWeights = Tuple[Tuple[HostingMode, ...], Tuple[float, ...]]


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name.lower()).strip("-")


@dataclass(frozen=True)
class CaSpec:
    """Static per-CA issuance facts the generator needs."""

    name: str
    akid: str
    crl_url: str
    ocsp_url: str
    default_lifetime_days: int
    max_lifetime_days: int
    acme: bool
    registrar: bool
    share_schedule: Tuple[Tuple[Day, float], ...]

    def weight_on(self, query_day: Day) -> float:
        weight = 0.0
        for start, value in self.share_schedule:
            if query_day >= start:
                weight = value
        return weight

    def lifetime_for(self, issuance_day: Day) -> int:
        ceiling = min(self.max_lifetime_days, lifetime_limit_on(issuance_day))
        return min(self.default_lifetime_days, ceiling)


def _ca_spec(profile) -> CaSpec:
    slug = _slug(profile.name)
    return CaSpec(
        name=profile.name,
        akid=f"sg-akid:{slug}",
        crl_url=f"http://crl.{slug}.example/latest.crl",
        ocsp_url=f"http://ocsp.{slug}.example",
        default_lifetime_days=profile.default_lifetime_days,
        max_lifetime_days=profile.max_lifetime_days,
        acme=profile.acme_automated,
        registrar=profile.name == _GODADDY_CA_NAME,
        share_schedule=profile.share_schedule,
    )


_CF_MANAGED_SPECS = {
    "cruiseliner": CaSpec(
        name=COMODO_CRUISELINER_ISSUER,
        akid=f"sg-akid:{_slug(COMODO_CRUISELINER_ISSUER)}",
        crl_url=f"http://crl.{_slug(COMODO_CRUISELINER_ISSUER)}.example/latest.crl",
        ocsp_url=f"http://ocsp.{_slug(COMODO_CRUISELINER_ISSUER)}.example",
        default_lifetime_days=365,
        max_lifetime_days=825,
        acme=False,
        registrar=False,
        share_schedule=(),
    ),
    "cloudflare": CaSpec(
        name=CLOUDFLARE_CA_ISSUER,
        akid=f"sg-akid:{_slug(CLOUDFLARE_CA_ISSUER)}",
        crl_url=f"http://crl.{_slug(CLOUDFLARE_CA_ISSUER)}.example/latest.crl",
        ocsp_url=f"http://ocsp.{_slug(CLOUDFLARE_CA_ISSUER)}.example",
        default_lifetime_days=365,
        max_lifetime_days=398,
        acme=False,
        registrar=False,
        share_schedule=(),
    ),
}


class GenPlan:
    """The deterministic registration plan: day buckets + prefix sums.

    A pure function of the config (one labelled Poisson fork per day),
    so every shard agrees on the global domain indexing. A save builds
    it once, inside its :class:`GenContext`; its size follows the
    timeline, not the world scale. Each day's count is the Poisson draw
    of ``RngStream(seed, "streamgen", "plan", str(day))``, taken from one
    ``random.Random`` reseeded per day with that stream's seed, hashed
    from the ``("streamgen", "plan")`` prefix.
    """

    def __init__(self, config: WorldConfig, dns_row_budget: int) -> None:
        if dns_row_budget < 1:
            raise ValueError(
                f"dns_row_budget must be positive, got {dns_row_budget}"
            )
        self.config = config
        self.timeline = config.timeline
        start = self.timeline.simulation_start
        end = self.timeline.simulation_end
        self.start_day = start
        prefix = ForkPrefix(config.seed, "streamgen", "plan")
        rng = random.Random()
        counts: List[int] = []
        for current in range(start, end + 1):
            rate = config.registration_rate(current)
            if rate <= 0:
                counts.append(0)
                continue
            rng.seed(prefix.draw(label_suffix(str(current))))
            counts.append(poisson(rng, rate))
        cumulative = [0]
        for count in counts:
            cumulative.append(cumulative[-1] + count)
        self._cumulative = cumulative
        self.total_domains = cumulative[-1]
        self.dns_row_budget = dns_row_budget
        self.dns_stride = self._choose_dns_stride()
        scan_start = self.timeline.dns_scan_start
        scan_end = self.timeline.dns_scan_end
        self.dns_days: Tuple[Day, ...] = tuple(
            current
            for current in range(scan_start, scan_end + 1)
            if (current - scan_start) % self.dns_stride == 0
        )

    def _choose_dns_stride(self) -> int:
        window = self.timeline.dns_scan_end - self.timeline.dns_scan_start + 1
        expected_rows = self.total_domains * _DNS_ALIVE_FRACTION * window
        if expected_rows <= self.dns_row_budget:
            return 1
        return max(1, -(-int(expected_rows) // self.dns_row_budget))

    def registration_day(self, index: int) -> Day:
        """The planned registration day of domain *index*."""
        if not (0 <= index < self.total_domains):
            raise IndexError(index)
        bucket = bisect_right(self._cumulative, index) - 1
        return self.start_day + bucket


def shard_ranges(total: int, shards: int) -> List[Tuple[int, int]]:
    """K contiguous near-equal [lo, hi) index ranges covering *total*."""
    if shards <= 0:
        raise ValueError("shards must be positive")
    base, extra = divmod(total, shards)
    ranges = []
    lo = 0
    for shard in range(shards):
        hi = lo + base + (1 if shard < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class GenContext:
    """Everything per-domain emission needs, built once per save.

    A function of the config alone and small (no per-domain state), so
    a sharded save hands the same context to every worker: forked
    workers inherit it, spawned ones unpickle it. Besides the plan it
    holds immutable :class:`EraTable` s of what the draws read from the
    config's schedules (revocation probabilities, cumulative CA-pool and
    hosting-mix weights), one entry per breakpoint, and the DNS loss
    rate's byte bound; nothing in it changes after ``__init__``.
    """

    def __init__(self, config: WorldConfig, dns_row_budget: Optional[int] = None) -> None:
        self.config = config
        self.timeline = config.timeline
        self.plan = GenPlan(
            config,
            DEFAULT_DNS_ROW_BUDGET if dns_row_budget is None else dns_row_budget,
        )
        self.seed = config.seed
        #: ``label_suffix(str(day))`` for each of ``plan.dns_days``.
        self.dns_day_suffixes: Tuple[bytes, ...] = tuple(
            label_suffix(str(day)) for day in self.plan.dns_days
        )
        #: Scan draws below this bound are losses; None when the
        #: config loses none, so no draw is hashed.
        self.dns_loss_bound: Optional[bytes] = (
            draw_bound(config.dns_scan_loss_rate)
            if config.dns_scan_loss_rate > 0 else None
        )
        specs = [_ca_spec(profile) for profile in build_standard_profiles()]
        self.pool_cas: Tuple[CaSpec, ...] = tuple(specs)
        self.acme_cas: Tuple[CaSpec, ...] = tuple(s for s in specs if s.acme)
        self.registrar_ca: CaSpec = next(s for s in specs if s.registrar)
        self.cpanel_ca: CaSpec = next(
            s for s in self.acme_cas if s.name.startswith("cPanel")
        )
        self.cruiseliner_ca = _CF_MANAGED_SPECS["cruiseliner"]
        self.cloudflare_ca = _CF_MANAGED_SPECS["cloudflare"]
        self.pool_weights = _pool_weights(self.pool_cas)
        self.acme_weights = _pool_weights(self.acme_cas)
        self.cpanel_issues: EraTable[bool] = EraTable(
            (start for start, _ in self.cpanel_ca.share_schedule),
            lambda query_day: self.cpanel_ca.weight_on(query_day) > 0,
        )
        self.hosting_weights: EraTable[_HostingWeights] = EraTable(
            (start for start, _ in config.hosting_mix_schedule),
            self._hosting_weights_on,
        )
        self.revocation_probabilities: EraTable[Tuple[float, float]] = EraTable(
            (
                start
                for schedule in (
                    config.registration_rate_schedule,
                    config.key_compromise_rate_schedule,
                    config.other_revocation_rate_schedule,
                )
                for start, _ in schedule
            ),
            self._revocation_probabilities_on,
        )

    def _hosting_weights_on(self, query_day: Day) -> _HostingWeights:
        mix = self.config.hosting_mix(query_day)
        return tuple(mix), tuple(accumulate(mix.values()))

    def _revocation_probabilities_on(self, query_day: Day) -> Tuple[float, float]:
        """(p_kc, p_other) per certificate issued on *query_day*.

        Both probabilities are ratios of same-day *world* rates (key
        compromises or other revocations per day over registrations per
        day), normalised by the calibration constant — so they are
        invariant under :meth:`WorldConfig.scaled` by construction.
        """
        config = self.config
        registrations = config.registration_rate(query_day)
        if registrations <= 0:
            return 0.0, 0.0
        per_cert = registrations * _CERTS_PER_REGISTRATION
        p_kc = min(0.5, config.key_compromise_rate(query_day) / per_cert)
        p_other = min(0.5, config.other_revocation_rate(query_day) / per_cert)
        return p_kc, p_other


def _pool_weights(pool: Tuple[CaSpec, ...]) -> EraTable[Optional[Tuple[float, ...]]]:
    """``accumulate`` of the pool's ``weight_on(day)``, or None on the
    days no CA of *pool* issues."""

    def cum_weights_on(query_day: Day) -> Optional[Tuple[float, ...]]:
        weights = [spec.weight_on(query_day) for spec in pool]
        if not any(weight > 0 for weight in weights):
            return None
        return tuple(accumulate(weights))

    return EraTable(
        (start for spec in pool for start, _ in spec.share_schedule), cum_weights_on
    )


def _stable_ip(name: str, generation: int) -> str:
    # Same digest fold as the simulator: salted str hashing would break
    # cross-process determinism.
    digest = 17
    for ch in name:
        digest = (digest * 31 + ord(ch)) & 0xFFFFFFFF
    digest = (digest + generation * 7919) & 0xFFFFFFFF
    return f"198.51.{digest % 250}.{(digest // 250) % 250}"


def _domain_name(rng: RngStream, index: int) -> str:
    adjective = rng.choice(_NAME_ADJECTIVES)
    noun = rng.choice(_NAME_NOUNS)
    tld = rng.cumulative_choice(_TLDS, _TLD_CUM_WEIGHTS)
    return f"{adjective}{noun}{index + 1}.{tld}"


@dataclass
class _Phase:
    """One hosting phase of one registration span (inclusive days)."""

    start: Day
    end: Day
    mode: HostingMode
    ns_base: Optional[str]  # None = Cloudflare delegation
    issues_certs: bool
    generation: int


class _DomainEmitter:
    """Generates one domain's full lifetime of rows from its own fork."""

    __slots__ = (
        "ctx", "cfg", "tl", "index", "rng", "name", "www", "e2lds",
        "serial_base", "seq", "certs", "revocations", "whois", "dns",
        "dns_loss",
    )

    def __init__(self, ctx: GenContext, index: int) -> None:
        self.ctx = ctx
        self.cfg = ctx.config
        self.tl = ctx.timeline
        self.index = index
        self.rng = RngStream(ctx.seed, "streamgen", "domain", str(index))
        self.name = _domain_name(self.rng, index)
        self.www = f"www.{self.name}"
        self.e2lds = [self.name]
        self.serial_base = index * _SERIALS_PER_DOMAIN
        self.seq = 0
        self.certs: List[Tuple] = []
        self.revocations: List[Tuple[Day, Tuple]] = []
        self.whois: List[Tuple] = []
        self.dns: List[Tuple] = []
        self.dns_loss: Optional[ForkPrefix] = None  # built on first scan day

    # -- span / phase structure ------------------------------------------

    def run(self) -> None:
        reg_day = self.ctx.plan.registration_day(self.index)
        span_no = 0
        start: Optional[Day] = reg_day
        while start is not None and start <= self.tl.simulation_end:
            start = self._emit_span(start, span_no)
            span_no += 1
        # Revocations sorted by day within the domain keeps the global
        # stream domain-major/day-minor, a stable canonical order.
        self.revocations.sort(key=lambda item: (item[0], item[1][2]))

    def _emit_span(self, start: Day, span_no: int) -> Optional[Day]:
        cfg, tl, rng = self.cfg, self.tl, self.rng
        expiry = start + cfg.registration_term_days
        while expiry <= tl.simulation_end and rng.bernoulli(cfg.renew_probability):
            expiry += cfg.registration_term_days
        lapsed = expiry <= tl.simulation_end
        alive_end = min(expiry, tl.simulation_end)
        deleted_on = lifecycle_release_day(expiry) if lapsed else None

        if start <= tl.whois_end and (
            deleted_on is None or deleted_on >= tl.whois_start
        ):
            self.whois.append((self.name, start))

        mode = self._choose_hosting(start)
        tls = rng.bernoulli(cfg.tls_adoption(start))
        for phase in self._phases(start, alive_end, span_no, mode, tls):
            if tls and phase.issues_certs:
                if phase.ns_base is None:
                    self._emit_managed_chain(phase)
                else:
                    self._emit_self_chain(phase)
            self._emit_dns(phase)

        if not lapsed:
            return None
        release = deleted_on if deleted_on is not None else expiry
        if not rng.bernoulli(cfg.re_registration_probability):
            return None
        if rng.bernoulli(cfg.drop_catch_probability):
            next_start = release
        else:
            next_start = release + rng.bounded_pareto_days(
                1, cfg.re_registration_max_delay
            )
        return next_start if next_start <= tl.simulation_end else None

    def _choose_hosting(self, current: Day) -> HostingMode:
        modes, cum_weights = self.ctx.hosting_weights.at(current)
        return self.rng.cumulative_choice(modes, cum_weights)

    def _phases(
        self, start: Day, alive_end: Day, span_no: int, mode: HostingMode, tls: bool
    ) -> List[_Phase]:
        cfg, rng = self.cfg, self.rng
        generation = span_no * 4
        default_base = f"dns-{1 + (sum(ord(c) for c in self.name) % 12)}.net"
        if not tls or mode is not HostingMode.CLOUDFLARE_MANAGED:
            first_base = default_base
            if not tls:
                # No TLS: hosting churn is invisible to every dataset
                # except DNS, where the delegation simply stays put.
                return [_Phase(start, alive_end, mode, first_base, False, generation)]
            enroll_gap = max(1, int(rng.expovariate(
                max(cfg.cdn_enrollment_rate_per_1k, 1e-9) / 1000.0
            )))
            enroll_day = start + enroll_gap
            if enroll_day >= alive_end:
                return [_Phase(start, alive_end, mode, first_base, True, generation)]
            phases = [_Phase(start, enroll_day - 1, mode, first_base, True, generation)]
            phases.extend(
                self._cloudflare_phases(enroll_day, alive_end, generation + 1)
            )
            return phases
        return self._cloudflare_phases(start, alive_end, generation)

    def _cloudflare_phases(
        self, start: Day, alive_end: Day, generation: int
    ) -> List[_Phase]:
        """A managed-TLS phase plus, usually, the departure after it."""
        cfg, rng = self.cfg, self.rng
        if rng.bernoulli(cfg.cdn_early_churn_share):
            departure_gap = rng.randint(7, 90)  # front-loaded trial churn
        else:
            departure_gap = max(1, int(rng.expovariate(
                max(cfg.cdn_departure_rate_per_1k, 1e-9) / 1000.0
            )))
        departure_day = start + departure_gap
        cf_phase = _Phase(
            start, min(departure_day - 1, alive_end),
            HostingMode.CLOUDFLARE_MANAGED, None, True, generation,
        )
        if departure_day > alive_end:
            return [cf_phase]
        new_mode = (
            HostingMode.SELF_ACME
            if rng.bernoulli(0.6)
            else HostingMode.SELF_MANUAL
        )
        reissue = rng.bernoulli(cfg.post_departure_reissue_probability)
        new_base = f"hosting-{rng.randint(1, 40)}.net"
        return [
            cf_phase,
            _Phase(
                departure_day, alive_end, new_mode, new_base, reissue,
                generation + 1,
            ),
        ]

    # -- certificates -----------------------------------------------------

    def _pick_ca(self, mode: HostingMode, current: Day) -> Optional[CaSpec]:
        ctx = self.ctx
        if mode is HostingMode.SELF_ACME:
            pool, table = ctx.acme_cas, ctx.acme_weights
        elif mode is HostingMode.REGISTRAR_MANAGED:
            return ctx.registrar_ca
        elif mode is HostingMode.HOSTING_PLATFORM and ctx.cpanel_issues.at(current):
            return ctx.cpanel_ca
        else:
            pool, table = ctx.pool_cas, ctx.pool_weights
        cum_weights = table.at(current)
        if cum_weights is None:
            return None
        return self.rng.cumulative_choice(pool, cum_weights)

    def _emit_self_chain(self, phase: _Phase) -> None:
        cfg, rng = self.cfg, self.rng
        owner = (
            f"host:{phase.mode.value}"
            if phase.mode.is_managed_tls
            else f"sg-reg-{self.index}-{phase.generation // 4}"
        )
        current = phase.start
        while current <= phase.end and self.seq < _MAX_CERTS_PER_DOMAIN:
            ca = self._pick_ca(phase.mode, current)
            if ca is None:
                return  # e.g. ACME hosting before Let's Encrypt existed
            lifetime = ca.lifetime_for(current)
            self._emit_cert(
                ca, current, lifetime, owner,
                subject_cn=self.name,
                sans=[self.name, self.www],
                e2lds=self.e2lds,
            )
            if phase.mode in _AUTOMATED_RENEWAL:
                current += max(1, (lifetime * 2) // 3)
            elif phase.mode is HostingMode.REGISTRAR_MANAGED:
                current += lifetime
            else:
                current += lifetime
                if current > phase.end:
                    return
                if not rng.bernoulli(cfg.manual_renew_probability):
                    return

    def _emit_managed_chain(self, phase: _Phase) -> None:
        rng, tl = self.rng, self.tl
        sni_label = f"sni{100000 + self.index % 800000}.cloudflaressl.com"
        e2lds = sorted({self.name, _CLOUDFLARE_E2LD})
        current = phase.start
        while current <= phase.end and self.seq < _MAX_CERTS_PER_DOMAIN:
            if rng.bernoulli(tl.cruiseliner_share(current)):
                ca = self.ctx.cruiseliner_ca
            else:
                ca = self.ctx.cloudflare_ca
            lifetime = ca.lifetime_for(current)
            self._emit_cert(
                ca, current, lifetime, "cdn:cloudflare",
                subject_cn=sni_label,
                sans=[sni_label, self.name, self.www],
                e2lds=e2lds,
            )
            # The CDN reissues well before expiry (~150 days remaining).
            current += max(30, lifetime - 150)

    def _emit_cert(
        self,
        ca: CaSpec,
        issuance_day: Day,
        lifetime: int,
        owner: str,
        subject_cn: str,
        sans: List[str],
        e2lds: List[str],
    ) -> None:
        serial = self.serial_base + self.seq
        self.seq += 1
        not_after = issuance_day + lifetime
        self.certs.append((
            subject_cn,
            sans,
            serial,  # key_id: unique per certificate, like KeyStore's counter
            _KEY_ALGORITHM,
            owner,
            0,
            _KU_VALUE,
            _EKU_VALUES,
            ca.name,
            ca.akid,
            ca.crl_url,
            ca.ocsp_url,
            "dv",
            serial,
            0,
            [],
            issuance_day,
            not_after,
            e2lds,
        ))
        self._maybe_revoke(ca, serial, owner, issuance_day, not_after, lifetime)

    # -- revocations ------------------------------------------------------

    def _maybe_revoke(
        self,
        ca: CaSpec,
        serial: int,
        owner: str,
        issuance_day: Day,
        not_after: Day,
        lifetime: int,
    ) -> None:
        cfg, tl, rng = self.cfg, self.tl, self.rng
        p_kc, p_other = self.ctx.revocation_probabilities.at(issuance_day)
        candidate: Optional[Tuple[Day, RevocationReason]] = None
        if not owner.startswith("cdn:") and rng.bernoulli(p_kc):
            delay = int(rng.expovariate(1.0 / cfg.compromise_delay_mean_days))
            lag = rng.randint(0, cfg.revocation_lag_max_days)
            when = issuance_day + delay + lag
            if when <= min(not_after, tl.simulation_end):
                candidate = (when, RevocationReason.KEY_COMPROMISE)
        elif rng.bernoulli(p_other):
            when = issuance_day + rng.randint(1, max(1, lifetime - 1))
            if when <= tl.simulation_end:
                reason = rng.cumulative_choice(_OTHER_REASONS, _OTHER_CUM_WEIGHTS)
                candidate = (when, reason)

        breach = self._breach_revocation(ca, serial, issuance_day, not_after)
        if breach is not None and (candidate is None or breach[0] < candidate[0]):
            candidate = breach
        if candidate is None:
            return
        when, reason = candidate
        reason = self._reported_reason(ca, when, reason)
        self.revocations.append(
            (when, (ca.name, ca.akid, serial, when, reason.name))
        )

    def _breach_revocation(
        self, ca: CaSpec, serial: int, issuance_day: Day, not_after: Day
    ) -> Optional[Tuple[Day, RevocationReason]]:
        """The scripted GoDaddy November-2021 breach, as per-cert forks."""
        tl = self.tl
        if not ca.registrar:
            return None
        disclosure = tl.godaddy_breach_disclosure
        if not (tl.godaddy_breach_exposure_start <= issuance_day <= disclosure):
            return None
        if not_after < disclosure:
            return None
        exposure = split_seed(self.ctx.seed, "streamgen", "breach", str(serial))
        if exposure / _TWO_POW_64 >= self.cfg.godaddy_breach_exposure_fraction:
            return None
        window = tl.godaddy_breach_revocation_end - disclosure + 1
        offset = split_seed(
            self.ctx.seed, "streamgen", "breach-day", str(serial)
        ) % window
        when = disclosure + offset
        if when > not_after:
            return None
        return when, RevocationReason.KEY_COMPROMISE

    def _reported_reason(
        self, ca: CaSpec, when: Day, reason: RevocationReason
    ) -> RevocationReason:
        # Let's Encrypt published generic reasons before July 2022.
        if (
            reason is RevocationReason.KEY_COMPROMISE
            and ca.name.startswith("Let's Encrypt")
            and when < self.tl.lets_encrypt_kc_reporting_start
        ):
            return RevocationReason.SUPERSEDED
        return reason

    # -- DNS ---------------------------------------------------------------

    def _emit_dns(self, phase: _Phase) -> None:
        tl = self.tl
        if phase.end < tl.dns_scan_start or phase.start > tl.dns_scan_end:
            return
        if phase.ns_base is None:
            records = {
                "A": ["104.16.1.1"],
                "NS": sorted(CLOUDFLARE_NAMESERVERS),
            }
        else:
            records = {
                "A": [_stable_ip(self.name, phase.generation)],
                "NS": sorted(
                    (f"ns1.{phase.ns_base}", f"ns2.{phase.ns_base}")
                ),
            }
        ctx, dns = self.ctx, self.dns
        days, suffixes = ctx.plan.dns_days, ctx.dns_day_suffixes
        loss_bound = ctx.dns_loss_bound
        lo, hi = bisect_left(days, phase.start), bisect_right(days, phase.end)
        if loss_bound is not None and lo < hi and self.dns_loss is None:
            self.dns_loss = ForkPrefix(ctx.seed, "streamgen", "dns-loss", self.name)
        for position in range(lo, hi):
            scan_day = days[position]
            # draw / 2**64 < dns_scan_loss_rate, compared as bytes.
            if loss_bound is not None and (
                self.dns_loss.draw_bytes(suffixes[position]) < loss_bound
            ):
                continue  # transient lookup failure: absent from the day
            # The run goes on when the previous scan saw the same records
            # (phases and spans meet, so it may have begun in an earlier one).
            run = dns[-1] if position and dns else None
            if run is not None and run[2] == days[position - 1] and run[3] == records:
                dns[-1] = (run[0], self.name, scan_day, records)
            else:
                dns.append((scan_day, self.name, scan_day, records))


def emit_domain(ctx: GenContext, index: int) -> _DomainEmitter:
    """Generate all rows for domain *index* (its own RNG fork)."""
    emitter = _DomainEmitter(ctx, index)
    emitter.run()
    return emitter


# ---------------------------------------------------------------------------
# shard iteration
# ---------------------------------------------------------------------------

#: Rows per emitted batch (bounds queue payloads and writer call rate).
DEFAULT_BATCH_ROWS = 2048

#: Domains between ``on_progress`` flushes in :func:`shard_rows` — keeps
#: the live-progress cost amortised at large scales.
PROGRESS_EVERY_DOMAINS = 64

#: Callback signature: ``on_progress(domains_delta, spill_bytes_delta)``.
ProgressCallback = Callable[[int, int], None]


def shard_rows(
    ctx: GenContext,
    lo: int,
    hi: int,
    dns_sorter: ExternalSorter,
    batch_rows: int = DEFAULT_BATCH_ROWS,
    on_progress: Optional[ProgressCallback] = None,
) -> Iterator[Tuple[str, List[Tuple]]]:
    """Stream one shard's certs/revocations/whois batches, in canonical
    (domain-index-major) order; DNS runs go into *dns_sorter* for the
    global (first_day, apex) sort.

    *on_progress*, when given, is invoked every
    :data:`PROGRESS_EVERY_DOMAINS` domains (and at shard end) with the
    domains emitted and sorter bytes spilled since the previous call —
    the hook the live timeline (and the genpool's cross-process progress
    relay) hangs off.
    """
    batches: Dict[str, List[Tuple]] = {
        schema.CERTS_TABLE: [],
        schema.REVOCATIONS_TABLE: [],
        schema.WHOIS_TABLE: [],
    }
    pending_domains = 0
    reported_spill = dns_sorter.spilled_bytes
    for index in range(lo, hi):
        emitter = emit_domain(ctx, index)
        batches[schema.CERTS_TABLE].extend(emitter.certs)
        batches[schema.REVOCATIONS_TABLE].extend(
            row for _, row in emitter.revocations
        )
        batches[schema.WHOIS_TABLE].extend(emitter.whois)
        dns_sorter.extend(emitter.dns)
        pending_domains += 1
        if on_progress is not None and pending_domains >= PROGRESS_EVERY_DOMAINS:
            on_progress(pending_domains, dns_sorter.spilled_bytes - reported_spill)
            pending_domains = 0
            reported_spill = dns_sorter.spilled_bytes
        for table in (schema.CERTS_TABLE, schema.REVOCATIONS_TABLE, schema.WHOIS_TABLE):
            if len(batches[table]) >= batch_rows:
                yield table, batches[table]
                batches[table] = []
    if on_progress is not None and (
        pending_domains or dns_sorter.spilled_bytes != reported_spill
    ):
        on_progress(pending_domains, dns_sorter.spilled_bytes - reported_spill)
    for table in (schema.CERTS_TABLE, schema.REVOCATIONS_TABLE, schema.WHOIS_TABLE):
        if batches[table]:
            yield table, batches[table]


def stream_rows(
    ctx: GenContext,
    shards: int = 1,
    batch_rows: int = DEFAULT_BATCH_ROWS,
) -> Iterator[Tuple[str, List[Tuple]]]:
    """In-process row stream: all shards' lifecycle rows (in shard
    order), then globally (first_day, apex)-merged DNS run batches.

    Shard count never changes the emitted rows — only which worker
    computes them — so any K yields an identical stream.
    """
    from repro.obs import phase_progress

    domains_p = phase_progress("gen_domains")
    spill_p = phase_progress("gen_spill_bytes")
    shards_p = phase_progress("gen_shards")
    domains_p.set_total(ctx.plan.total_domains)
    shards_p.set_total(shards)

    def note(domains_delta: int, spill_delta: int) -> None:
        domains_p.add(domains_delta)
        spill_p.add(spill_delta)

    sorters: List[ExternalSorter] = []
    for lo, hi in shard_ranges(ctx.plan.total_domains, shards):
        sorter = ExternalSorter()
        yield from shard_rows(ctx, lo, hi, sorter, batch_rows, on_progress=note)
        sorters.append(sorter)
        shards_p.add(1)
    merged = heapq.merge(*[sorter.sorted_iter() for sorter in sorters])
    for batch in batched(merged, batch_rows):
        yield schema.DNS_TABLE, batch


def world_windows(config: WorldConfig) -> Dict[StalenessClass, Tuple[Day, Day]]:
    """The observation windows the bundle manifest carries (same mapping
    as ``WorldDatasets.to_bundle``)."""
    timeline = config.timeline
    return {
        StalenessClass.REVOKED_ALL: (
            timeline.revocation_cutoff, timeline.crl_collection_end,
        ),
        StalenessClass.KEY_COMPROMISE: (
            timeline.revocation_cutoff, timeline.crl_collection_end,
        ),
        StalenessClass.REGISTRANT_CHANGE: (
            timeline.registrant_window_start, timeline.registrant_window_end,
        ),
        StalenessClass.MANAGED_TLS_DEPARTURE: (
            timeline.dns_scan_start, timeline.dns_scan_end,
        ),
    }


# ---------------------------------------------------------------------------
# save paths
# ---------------------------------------------------------------------------


def save_streamed(
    config: WorldConfig,
    directory: str,
    shards: int = 1,
    dns_row_budget: Optional[int] = None,
    use_processes: Optional[bool] = None,
    rows_per_segment: Optional[int] = None,
) -> Dict[str, int]:
    """Stream-generate a world straight into a columnar bundle.

    Peak RSS is O(shard + segment): per-domain state is discarded after
    emission, DNS runs and index entries live in spill files, and table
    segments roll every 64Ki rows. Returns per-table row counts.
    """
    from repro.data.dataset import DEFAULT_ROWS_PER_SEGMENT
    from repro.obs import get_registry, names, phase_progress, span

    if use_processes is None:
        use_processes = shards > 1
    ctx = GenContext(config, dns_row_budget)
    registry = get_registry()
    registry.gauge(names.GEN_SHARDS, names.GEN_SHARDS_HELP).set(shards)
    registry.gauge(names.GEN_DNS_STRIDE, names.GEN_DNS_STRIDE_HELP).set(
        ctx.plan.dns_stride
    )
    rows_c = registry.counter(names.GEN_ROWS, names.GEN_ROWS_HELP, labels=("table",))
    domains_c = registry.counter(names.GEN_DOMAINS, names.GEN_DOMAINS_HELP)
    # Row totals are unknown ahead of time (0 = indeterminate); done
    # still advances per batch so the timeline shows per-table rates.
    row_progress = {
        schema.CERTS_TABLE: phase_progress("gen_rows_certs"),
        schema.REVOCATIONS_TABLE: phase_progress("gen_rows_revocations"),
        schema.WHOIS_TABLE: phase_progress("gen_rows_whois"),
        schema.DNS_TABLE: phase_progress("gen_rows_dns"),
    }

    writer = StreamingDatasetWriter(
        directory,
        world_windows(config),
        rows_per_segment=rows_per_segment or DEFAULT_ROWS_PER_SEGMENT,
        dns_calendar=ctx.plan.dns_days,
    )
    try:
        with span("gen_stream", shards=shards, domains=ctx.plan.total_domains):
            if use_processes:
                from repro.parallel.genpool import stream_rows_parallel

                batches = stream_rows_parallel(ctx, shards)
            else:
                batches = stream_rows(ctx, shards)
            for table, rows in batches:
                writer.extend(table, rows)
                rows_c.inc(len(rows), table=table)
                row_progress[table].add(len(rows))
        domains_c.inc(ctx.plan.total_domains)
        with span("gen_finish"):
            counts = writer.finish()
    except BaseException:
        writer.close()
        raise
    return counts


def save_materialized(  # repro-lint: disable=RL703  # reference implementation the streamgen equivalence suite compares save_streamed against
    config: WorldConfig,
    directory: str,
    dns_row_budget: Optional[int] = None,
    rows_per_segment: Optional[int] = None,
) -> Dict[str, int]:
    """Reference path: collect every row in memory, write through the
    batch ``SegmentWriter`` machinery. Byte-identical to
    :func:`save_streamed` for the same config — the equivalence suite
    depends on it, and it is O(world) memory by design."""
    from repro.data.dataset import DEFAULT_ROWS_PER_SEGMENT

    ctx = GenContext(config, dns_row_budget)
    rows_by_table: Dict[str, List[Tuple]] = {
        name: [] for name in schema.TABLE_NAMES
    }
    for table, rows in stream_rows(ctx, shards=1):
        rows_by_table[table].extend(rows)
    return write_rows_dataset(
        rows_by_table,
        world_windows(config),
        directory,
        rows_per_segment=rows_per_segment or DEFAULT_ROWS_PER_SEGMENT,
        dns_calendar=ctx.plan.dns_days,
    )
