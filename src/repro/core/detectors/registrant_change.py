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

from dataclasses import dataclass
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
    """Joins re-registration events against certificate validity windows."""

    def __init__(self, corpus: Corpus, tlds: Optional[Sequence[str]] = ("com", "net")) -> None:
        self._corpus = corpus
        self._tlds = tlds
        self.stats = RegistrantJoinStats()

    def detect(
        self,
        creation_pairs: Iterable[Tuple[str, Day]],
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        """Run the full pipeline from raw creation pairs."""
        out = findings if findings is not None else StaleFindings()
        events = find_re_registrations(creation_pairs, self._tlds)
        self.stats = RegistrantJoinStats(re_registration_events=len(events))
        emitted = set()
        for event in events:
            joined, candidates = self._corpus.e2ld_candidates(
                registration_key(event.domain), event.creation_day
            )
            if joined:
                self.stats.events_joining_certificates += 1
            for finding in re_registration_findings(
                event.domain, event.previous_creation_day, event.creation_day, candidates
            ):
                key = finding_key(finding)
                if key not in emitted:
                    emitted.add(key)
                    out.add(finding)
        self.stats.findings = len(emitted)
        return out
