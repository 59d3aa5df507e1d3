"""CT corpus statistics: growth, issuer mix, and lifetime eras.

Background analyses the paper narrates but does not tabulate: the explosive
post-Let's-Encrypt growth of issuance (§5.2), the shift of market share to
automated 90-day CAs (§2.2), and the stepwise collapse of maximum lifetimes
(825 → 398, §6). Useful both as a world-calibration check and as the kind
of overview a real CT monitor dashboard shows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ct.dedup import CertificateCorpus
from repro.pki.certificate import LIMIT_398_EFFECTIVE, LIMIT_825_EFFECTIVE
from repro.util.dates import year_of
from repro.util.stats import median


def yearly_issuance(corpus: CertificateCorpus) -> List[Tuple[int, int]]:
    """(year, certificates issued) pairs, year-ascending."""
    counts: Dict[int, int] = defaultdict(int)
    for certificate in corpus.certificates():
        counts[year_of(certificate.not_before)] += 1
    return sorted(counts.items())


@dataclass(frozen=True)
class LifetimeEraStats:
    """Lifetime distribution within one policy era."""

    era: str
    certificates: int
    median_lifetime: float
    max_lifetime: int
    share_90_day: float  # fraction with lifetime <= 90 (automated CAs)


def lifetime_by_policy_era(corpus: CertificateCorpus) -> List[LifetimeEraStats]:
    """Lifetime stats split at the 825-day and 398-day policy boundaries."""
    eras: Dict[str, List[int]] = {"pre-825 era": [], "825 era": [], "398 era": []}
    for certificate in corpus.certificates():
        if certificate.not_before >= LIMIT_398_EFFECTIVE:
            eras["398 era"].append(certificate.lifetime_days)
        elif certificate.not_before >= LIMIT_825_EFFECTIVE:
            eras["825 era"].append(certificate.lifetime_days)
        else:
            eras["pre-825 era"].append(certificate.lifetime_days)
    stats: List[LifetimeEraStats] = []
    for era in ("pre-825 era", "825 era", "398 era"):
        lifetimes = eras[era]
        if not lifetimes:
            continue
        stats.append(
            LifetimeEraStats(
                era=era,
                certificates=len(lifetimes),
                median_lifetime=median(lifetimes),
                max_lifetime=max(lifetimes),
                share_90_day=sum(1 for lt in lifetimes if lt <= 90) / len(lifetimes),
            )
        )
    return stats


def automation_share_by_year(corpus: CertificateCorpus) -> List[Tuple[int, float]]:
    """(year, fraction of issuance with <=90-day lifetimes) — the rise of
    automated issuance that makes short maximum lifetimes viable (§7.2)."""
    per_year: Dict[int, List[int]] = defaultdict(list)
    for certificate in corpus.certificates():
        per_year[year_of(certificate.not_before)].append(certificate.lifetime_days)
    return [
        (year, sum(1 for lt in lifetimes if lt <= 90) / len(lifetimes))
        for year, lifetimes in sorted(per_year.items())
    ]
