"""Certificate-lifetime policy simulation (paper Section 6).

Two complementary estimates of what shorter maximum lifetimes would buy:

* **Staleness-days reduction** (Figure 9): take every stale certificate
  with lifetime greater than the hypothetical cap *n*, pull its expiration
  in so its total lifetime is *n* (certificates shorter than *n* are
  untouched), and compare total staleness-days before and after. A finding
  whose invalidation lands after the capped expiry contributes zero.

* **Stale-certificate elimination** (Figure 8): survival analysis on
  days-from-issuance-to-invalidation. A cap of *n* days eliminates — as an
  optimistic upper bound, assuming no renewal — every stale certificate
  whose invalidation event occurred more than *n* days after issuance.

The paper evaluates caps of 45, 90, and 215 days against today's 398.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings

#: Candidate maximum lifetimes studied in Section 6 (days).
STUDIED_CAPS = (45, 90, 215)


@dataclass(frozen=True)
class CapResult:
    """Effect of one lifetime cap on one staleness class."""

    staleness_class: StalenessClass
    cap_days: int
    baseline_staleness_days: int
    capped_staleness_days: int
    baseline_stale_certificates: int
    eliminated_stale_certificates: int

    @property
    def staleness_days_reduction(self) -> float:
        """Fractional reduction in total staleness-days (Figure 9)."""
        if self.baseline_staleness_days == 0:
            return 0.0
        return 1.0 - self.capped_staleness_days / self.baseline_staleness_days

    @property
    def certificate_reduction(self) -> float:
        """Fractional elimination of stale certificates (Figure 8 readoff)."""
        if self.baseline_stale_certificates == 0:
            return 0.0
        return self.eliminated_stale_certificates / self.baseline_stale_certificates


def capped_staleness_days(finding: StaleCertificate, cap_days: int) -> int:
    """Staleness-days of one finding under a hypothetical lifetime cap.

    Certificates already within the cap are unmodified. For longer ones the
    expiry moves to ``notBefore + cap``; if the invalidation event falls
    after that new expiry, the certificate is never stale at all.
    """
    certificate = finding.certificate
    if certificate.lifetime_days <= cap_days:
        return finding.staleness_days
    capped_not_after = certificate.not_before + cap_days
    if finding.invalidation_day > capped_not_after:
        return 0
    return capped_not_after - finding.invalidation_day


class LifetimePolicySimulator:
    """Evaluates hypothetical maximum lifetimes over measured findings."""

    def __init__(self, findings: StaleFindings) -> None:
        self._findings = findings

    def evaluate(self, cls: StalenessClass, cap_days: int) -> CapResult:
        items = self._findings.of_class(cls)
        baseline_days = sum(f.staleness_days for f in items)
        capped_days = 0
        eliminated = 0
        for finding in items:
            contribution = capped_staleness_days(finding, cap_days)
            capped_days += contribution
            if contribution == 0 and finding.staleness_days > 0:
                eliminated += 1
            elif (
                contribution == 0
                and finding.staleness_days == 0
                and finding.days_to_invalidation > cap_days
            ):
                eliminated += 1
        return CapResult(
            staleness_class=cls,
            cap_days=cap_days,
            baseline_staleness_days=baseline_days,
            capped_staleness_days=capped_days,
            baseline_stale_certificates=len(items),
            eliminated_stale_certificates=eliminated,
        )

    def sweep(
        self,
        cls: StalenessClass,
        caps: Sequence[int] = STUDIED_CAPS,
    ) -> List[CapResult]:
        return [self.evaluate(cls, cap) for cap in caps]

    def full_matrix(
        self,
        classes: Optional[Sequence[StalenessClass]] = None,
        caps: Sequence[int] = STUDIED_CAPS,
    ) -> Dict[Tuple[StalenessClass, int], CapResult]:
        """Every (class, cap) pair — the data behind Figure 9 a/b/c."""
        if classes is None:
            classes = (
                StalenessClass.KEY_COMPROMISE,
                StalenessClass.REGISTRANT_CHANGE,
                StalenessClass.MANAGED_TLS_DEPARTURE,
            )
        matrix: Dict[Tuple[StalenessClass, int], CapResult] = {}
        for cls in classes:
            if not self._findings.of_class(cls):
                continue
            for cap in caps:
                matrix[(cls, cap)] = self.evaluate(cls, cap)
        return matrix

    def overall_staleness_reduction(
        self,
        cap_days: int,
        classes: Optional[Sequence[StalenessClass]] = None,
    ) -> float:
        """Pooled staleness-days reduction across classes — the abstract's
        '90 days yields a 75% decrease' headline."""
        if classes is None:
            classes = (
                StalenessClass.KEY_COMPROMISE,
                StalenessClass.REGISTRANT_CHANGE,
                StalenessClass.MANAGED_TLS_DEPARTURE,
            )
        baseline = 0
        capped = 0
        for cls in classes:
            result = self.evaluate(cls, cap_days)
            baseline += result.baseline_staleness_days
            capped += result.capped_staleness_days
        if baseline == 0:
            return 0.0
        return 1.0 - capped / baseline
