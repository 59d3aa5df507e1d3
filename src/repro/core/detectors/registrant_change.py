"""Registrant-change staleness via registry creation dates (paper §4.2).

For every (domain, registry creation date) pair, a creation date that is
*not* the first for that domain signals a deletion followed by
re-registration — a conservative public-re-registration signal. A stale
certificate is any certificate covering the domain whose validity strictly
spans the new creation date::

    notBefore < registryCreationDate < notAfter

The stale period runs from the creation date to notAfter. Transfers and
pre-release re-registrations do not reset the creation date and are missed —
the detector is deliberately a lower bound (the recall ablation quantifies
the gap against simulator ground truth).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ct.dedup import Corpus
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings, finding_key
from repro.pki.certificate import Certificate
from repro.psl.registered import e2ld
from repro.util.dates import Day


@dataclass(frozen=True)
class ReRegistration:
    """A detected public re-registration of a domain."""

    domain: str
    creation_day: Day
    previous_creation_day: Day


@dataclass
class RegistrantJoinStats:
    """Accounting for the creation-date/validity join."""

    re_registration_events: int = 0
    events_joining_certificates: int = 0
    findings: int = 0


def in_whois_scope(domain: str, tlds: Optional[Sequence[str]]) -> bool:
    """The TLD gate: only registries whose thin WHOIS the paper considers
    reliable (Verisign's .com/.net by default); ``tlds=None`` disables it."""
    return tlds is None or domain.rsplit(".", 1)[-1] in tlds


def registration_key(domain: str) -> str:
    """The e2LD a re-registered domain joins certificates on."""
    registrable = e2ld(domain)
    return registrable if registrable is not None else domain


def re_registration_findings(
    domain: str, previous: Day, current: Day, candidates: Iterable[Certificate]
) -> Iterator[StaleCertificate]:
    """Findings for one re-registration of *domain* (created *previous*,
    re-created *current*): every candidate certificate strictly spanning
    the new creation date with a SAN at or beneath the domain."""
    detail = f"re_registered_after={previous}"
    suffix = "." + domain
    for certificate in candidates:
        if not certificate.validity.contains(current, strict=True):
            continue
        if not any(san == domain or san.endswith(suffix) for san in certificate.fqdns()):
            continue  # no SAN at or beneath the re-registered domain
        yield StaleCertificate(
            certificate=certificate,
            staleness_class=StalenessClass.REGISTRANT_CHANGE,
            invalidation_day=current,
            affected_domain=domain,
            detail=detail,
        )


def find_re_registrations(
    creation_pairs: Iterable[Tuple[str, Day]],
    tlds: Optional[Sequence[str]] = ("com", "net"),
) -> List[ReRegistration]:
    """Reduce raw (domain, creation date) pairs to re-registration events.

    The same pair appears in many WHOIS crawls; only distinct creation dates
    matter, and only the second and later date per domain signal
    re-registration. ``tlds`` is the :func:`in_whois_scope` gate.
    """
    dates_by_domain: Dict[str, set] = {}
    for domain, creation_day in creation_pairs:
        if in_whois_scope(domain, tlds):
            dates_by_domain.setdefault(domain, set()).add(creation_day)
    events: List[ReRegistration] = []
    for domain, dates in dates_by_domain.items():
        ordered = sorted(dates)
        for previous, current in zip(ordered, ordered[1:]):
            events.append(ReRegistration(domain, current, previous))
    events.sort(key=lambda e: (e.creation_day, e.domain))
    return events


class RegistrantChangeDetector:
    """Joins re-registration events against certificate validity windows.

    :meth:`add_creation` takes one (domain, creation day) pair: a new
    distinct date forms a (previous, current) pair with its neighbours, and
    each pair queries the corpus for the certificates strictly spanning its
    current day, handled in (notBefore, row) order. The stream engine calls
    it per WHOIS event and :meth:`detect` over all pairs in (day, domain)
    order; an out-of-order date revises the pair it splits.
    """

    def __init__(self, corpus: Corpus, tlds: Optional[Sequence[str]] = ("com", "net")) -> None:
        self._corpus = corpus
        self._tlds = tlds
        #: Sorted distinct creation dates per in-scope domain.
        self._dates: Dict[str, List[Day]] = {}
        #: Whether any certificate carries the domain's e2LD.
        self._joined: Dict[str, bool] = {}
        self._findings: Dict[Tuple[str, Optional[str], Day], StaleCertificate] = {}

    def add_creation(self, domain: str, creation_day: Day) -> List[StaleCertificate]:
        """Record one creation pair; returns the findings it adds or revises."""
        if not in_whois_scope(domain, self._tlds):
            return []
        dates = self._dates.setdefault(domain, [])
        position = bisect.bisect_left(dates, creation_day)
        if position < len(dates) and dates[position] == creation_day:
            return []  # duplicate crawl observation
        dates.insert(position, creation_day)
        emitted: List[StaleCertificate] = []
        for current in range(max(1, position), min(position + 2, len(dates))):
            joined, candidates = self._corpus.e2ld_candidates(
                registration_key(domain), dates[current]
            )
            self._joined[domain] = joined > 0
            for finding in re_registration_findings(
                domain,
                dates[current - 1],
                dates[current],
                sorted(candidates, key=attrgetter("not_before")),
            ):
                key = finding_key(finding)
                existing = self._findings.get(key)
                if existing is None or existing.detail != finding.detail:
                    self._findings[key] = finding
                    emitted.append(finding)
        return emitted

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: creation dates join on arrival."""
        return []

    def findings(self) -> List[StaleCertificate]:
        return list(self._findings.values())

    @property
    def stats(self) -> RegistrantJoinStats:
        stats = RegistrantJoinStats(findings=len(self._findings))
        for domain, dates in self._dates.items():
            stats.re_registration_events += len(dates) - 1
            if self._joined.get(domain):
                stats.events_joining_certificates += len(dates) - 1
        return stats

    def detect(
        self,
        creation_pairs: Iterable[Tuple[str, Day]],
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        """Run the full pipeline from raw creation pairs."""
        out = findings if findings is not None else StaleFindings()
        for domain, creation_day in sorted(set(creation_pairs), key=itemgetter(1, 0)):
            self.add_creation(domain, creation_day)
        out.extend(self.findings())
        return out
