"""Stale-certificate finding records and aggregation.

A :class:`StaleCertificate` is one detected instance of a valid certificate
whose subscriber information has been invalidated; its *staleness period*
runs from the invalidation event to the certificate's notAfter (paper
Sections 4.1–4.3). :class:`StaleFindings` collects findings per staleness
class and computes the aggregates every table and figure is built from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.pki.certificate import Certificate
from repro.util.dates import Day, day_to_iso
from repro.util.stats import Ecdf, SurvivalCurve


class StalenessClass(enum.Enum):
    """The third-party staleness classes the paper measures, the
    all-revocations baseline from Table 4's first row, and the first-party
    key-rotation extension from §3.4 (not part of the default pipeline)."""

    REVOKED_ALL = "revoked_all"
    KEY_COMPROMISE = "key_compromise"
    REGISTRANT_CHANGE = "registrant_change"
    MANAGED_TLS_DEPARTURE = "managed_tls_departure"
    FIRST_PARTY_KEY_ROTATION = "first_party_key_rotation"


@dataclass(frozen=True)
class StaleCertificate:
    """One detected stale certificate."""

    certificate: Certificate
    staleness_class: StalenessClass
    invalidation_day: Day
    #: The domain whose control changed (registrant change / managed TLS);
    #: None for key compromise, where every SAN is affected.
    affected_domain: Optional[str] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.invalidation_day > self.certificate.not_after:
            raise ValueError(
                "invalidation after expiration is not a stale certificate "
                f"({day_to_iso(self.invalidation_day)} > "
                f"{day_to_iso(self.certificate.not_after)})"
            )

    @property
    def stale_from(self) -> Day:
        return self.invalidation_day

    @property
    def stale_until(self) -> Day:
        return self.certificate.not_after

    @property
    def staleness_days(self) -> int:
        """Length of the abusable window (Figure 6's x-axis)."""
        return self.stale_until - self.stale_from

    @property
    def days_to_invalidation(self) -> int:
        """Days from issuance to the invalidation event (Figure 8's x-axis)."""
        return self.invalidation_day - self.certificate.not_before

    def affected_fqdns(self) -> FrozenSet[str]:
        """FQDNs a third-party could impersonate through this finding."""
        if self.affected_domain is None:
            return self.certificate.fqdns()
        return frozenset(
            fqdn
            for fqdn in self.certificate.fqdns()
            if fqdn == self.affected_domain or fqdn.endswith("." + self.affected_domain)
        )

    def affected_e2lds(self) -> FrozenSet[str]:
        if self.affected_domain is None:
            return self.certificate.e2lds()
        from repro.psl.registered import e2ld  # local import avoids cycle at module load

        registrable = e2ld(self.affected_domain)
        return frozenset({registrable}) if registrable else frozenset()

    def is_stale_on(self, query_day: Day) -> bool:
        return self.stale_from <= query_day <= self.stale_until

    def to_record(self) -> dict:
        """Plain-dict form for JSONL checkpointing."""
        return {
            "certificate": self.certificate.to_record(),
            "staleness_class": self.staleness_class.value,
            "invalidation_day": self.invalidation_day,
            "affected_domain": self.affected_domain,
            "detail": self.detail,
        }

    @classmethod
    def from_record(cls, record: dict) -> "StaleCertificate":
        return cls(
            certificate=Certificate.from_record(record["certificate"]),
            staleness_class=StalenessClass(record["staleness_class"]),
            invalidation_day=record["invalidation_day"],
            affected_domain=record.get("affected_domain"),
            detail=record.get("detail", ""),
        )


def canonical_order_key(finding: StaleCertificate) -> Tuple[str, str, Day, str, str]:
    """Total order on findings, independent of detection order.

    Every engine (batch, sharded, stream) hands its findings out in this
    order, so their outputs agree element by element and serialise to the
    same bytes under any ``PYTHONHASHSEED``.
    """
    return (
        finding.staleness_class.value,
        finding.certificate.dedup_fingerprint(),
        finding.invalidation_day,
        finding.affected_domain or "",
        finding.detail or "",
    )


def finding_key(finding: StaleCertificate) -> Tuple[str, Optional[str], Day]:
    """Identity of a per-domain finding: (certificate, domain, day)."""
    return (
        finding.certificate.dedup_fingerprint(),
        finding.affected_domain,
        finding.invalidation_day,
    )


@dataclass
class ClassAggregate:
    """Aggregate counts for one staleness class (a Table 4 row)."""

    staleness_class: StalenessClass
    first_day: Day
    last_day: Day
    stale_certificates: int
    stale_fqdns: int
    stale_e2lds: int

    @property
    def observation_days(self) -> int:
        return max(1, self.last_day - self.first_day + 1)

    @property
    def daily_certificates(self) -> float:
        return self.stale_certificates / self.observation_days

    @property
    def daily_fqdns(self) -> float:
        return self.stale_fqdns / self.observation_days

    @property
    def daily_e2lds(self) -> float:
        return self.stale_e2lds / self.observation_days


class StaleFindings:
    """All findings from one measurement run, grouped by class."""

    def __init__(self) -> None:
        self._by_class: Dict[StalenessClass, List[StaleCertificate]] = {
            cls: [] for cls in StalenessClass
        }

    def add(self, finding: StaleCertificate) -> None:
        self._by_class[finding.staleness_class].append(finding)

    def extend(self, findings: Iterable[StaleCertificate]) -> None:
        for finding in findings:
            self.add(finding)

    def of_class(self, cls: StalenessClass) -> List[StaleCertificate]:
        return list(self._by_class[cls])

    def all_findings(self) -> Iterator[StaleCertificate]:
        for findings in self._by_class.values():
            yield from findings

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_class.values())

    @classmethod
    def in_canonical_order(cls, findings: Iterable[StaleCertificate]) -> "StaleFindings":
        """A findings set holding *findings* sorted by :func:`canonical_order_key`."""
        out = cls()
        out.extend(sorted(findings, key=canonical_order_key))
        return out

    # -- aggregates ---------------------------------------------------------

    def aggregate(
        self,
        cls: StalenessClass,
        window: Optional[Tuple[Day, Day]] = None,
    ) -> Optional[ClassAggregate]:
        """Table 4 style aggregate for one class.

        ``window`` overrides the observation period (the paper reports daily
        rates over each method's own collection window).
        """
        findings = self._by_class[cls]
        if not findings:
            return None
        if window is None:
            first = min(f.invalidation_day for f in findings)
            last = max(f.invalidation_day for f in findings)
        else:
            first, last = window
        fqdns: Set[str] = set()
        e2lds: Set[str] = set()
        for finding in findings:
            fqdns.update(finding.affected_fqdns())
            e2lds.update(finding.affected_e2lds())
        return ClassAggregate(
            staleness_class=cls,
            first_day=first,
            last_day=last,
            stale_certificates=len(findings),
            stale_fqdns=len(fqdns),
            stale_e2lds=len(e2lds),
        )

    def staleness_ecdf(self, cls: StalenessClass) -> Ecdf:
        """Distribution of staleness periods (Figure 6)."""
        findings = self._by_class[cls]
        if not findings:
            raise ValueError(f"no findings for {cls.value}")
        return Ecdf(f.staleness_days for f in findings)

    def survival_curve(self, cls: StalenessClass) -> SurvivalCurve:
        """Days-to-invalidation survival (Figure 8)."""
        findings = self._by_class[cls]
        if not findings:
            raise ValueError(f"no findings for {cls.value}")
        return SurvivalCurve(f.days_to_invalidation for f in findings)

    def total_staleness_days(self, cls: StalenessClass) -> int:
        return sum(f.staleness_days for f in self._by_class[cls])

    def live_count_series(
        self,
        cls: StalenessClass,
        first_day: Day,
        last_day: Day,
        step_days: int = 7,
    ) -> List[Tuple[Day, int]]:
        """How many stale certificates are *live* (valid and invalidated) on
        each sampled day — the paper intro's 'replenishing population'.

        Computed with a sweep over (start, end) events rather than per-day
        scans, so long windows stay cheap.
        """
        if step_days <= 0:
            raise ValueError("step must be positive")
        starts = sorted(f.stale_from for f in self._by_class[cls])
        ends = sorted(f.stale_until for f in self._by_class[cls])
        series: List[Tuple[Day, int]] = []
        si = ei = 0
        for current in range(first_day, last_day + 1, step_days):
            while si < len(starts) and starts[si] <= current:
                si += 1
            while ei < len(ends) and ends[ei] < current:
                ei += 1
            series.append((current, si - ei))
        return series
