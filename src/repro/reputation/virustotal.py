"""VirusTotal-like reputation store.

The paper (Section 5.2, Table 5) queries VT for 100K randomly sampled
stale-certificate domains, keeping detections flagged by at least five
vendors, and correlates the period of malicious activity with stale
certificate control via the minimum ``first_submission`` date. This module
reproduces the store and its query semantics; data is synthesized from the
simulator's ground-truth malicious-ownership spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.dates import Day
from repro.util.rng import RngStream

#: Minimum flagging vendors for a detection to count (paper's threshold).
VENDOR_THRESHOLD = 5

#: URL verdict categories vendors emit (Table 5's right column).
URL_CATEGORIES = ("phishing", "malicious", "malware")

#: Malware categories seen in file detections (Table 5's left column),
#: with rough relative prevalence from the paper's counts.
MALWARE_CATEGORY_WEIGHTS = (
    ("grayware", 82),
    ("backdoor", 74),
    ("unknown", 53),
    ("downloader", 51),
    ("virus", 29),
    ("spyware", 27),
    ("ransomware", 18),
    ("other", 18),
)

_VENDORS = tuple(f"vendor-{i:02d}" for i in range(1, 31))


@dataclass(frozen=True)
class UrlVerdict:
    """One vendor's verdict on a URL under a domain."""

    domain: str
    url: str
    vendor: str
    category: str  # phishing / malicious / malware
    flagged_on: Day


@dataclass(frozen=True)
class FileReport:
    """A malicious file associated with a domain (download or C2)."""

    domain: str
    sha256: str
    vendor_labels: Tuple[str, ...]  # raw AV labels, AVClass2 input
    vendor_count: int
    first_submission: Day
    category: str


class VirusTotalStore:
    """Queryable store of URL verdicts and file reports."""

    def __init__(self) -> None:
        self._url_verdicts: Dict[str, List[UrlVerdict]] = {}
        self._file_reports: Dict[str, List[FileReport]] = {}

    def add_url_verdict(self, verdict: UrlVerdict) -> None:
        self._url_verdicts.setdefault(verdict.domain, []).append(verdict)

    def add_file_report(self, report: FileReport) -> None:
        self._file_reports.setdefault(report.domain, []).append(report)

    def url_verdicts(self, domain: str) -> List[UrlVerdict]:
        return list(self._url_verdicts.get(domain, []))

    def file_reports(self, domain: str) -> List[FileReport]:
        return list(self._file_reports.get(domain, []))

    def flagged_url_categories(self, domain: str) -> Dict[str, int]:
        """Category -> distinct flagging vendors, keeping only categories
        that clear the ≥5-vendor threshold."""
        vendors_by_category: Dict[str, set] = {}
        for verdict in self._url_verdicts.get(domain, []):
            vendors_by_category.setdefault(verdict.category, set()).add(verdict.vendor)
        return {
            category: len(vendors)
            for category, vendors in vendors_by_category.items()
            if len(vendors) >= VENDOR_THRESHOLD
        }

    def detected_files(self, domain: str) -> List[FileReport]:
        """File reports flagged by at least five vendors."""
        return [
            report
            for report in self._file_reports.get(domain, [])
            if report.vendor_count >= VENDOR_THRESHOLD
        ]

    def first_malicious_day(self, domain: str) -> Optional[Day]:
        """Earliest evidence of malicious activity (the paper's temporal
        join key): min first_submission across detected files, or the first
        day a URL category cleared the vendor threshold."""
        candidates: List[Day] = [r.first_submission for r in self.detected_files(domain)]
        vendors_seen: Dict[str, set] = {}
        flagged_days: List[Tuple[Day, str, str]] = sorted(
            (v.flagged_on, v.vendor, v.category) for v in self._url_verdicts.get(domain, [])
        )
        for flagged_on, vendor, category in flagged_days:
            seen = vendors_seen.setdefault(category, set())
            seen.add(vendor)
            if len(seen) >= VENDOR_THRESHOLD:
                candidates.append(flagged_on)
                break
        return min(candidates) if candidates else None

    def is_detected(self, domain: str) -> bool:
        return bool(self.flagged_url_categories(domain)) or bool(self.detected_files(domain))

    def domains(self) -> List[str]:
        return sorted(set(self._url_verdicts) | set(self._file_reports))


def build_store_from_ownership(
    malicious_ownership: Sequence[Tuple[str, str, Day, Day]],
    rng: RngStream,
    url_activity_probability: float = 0.70,
    file_activity_probability: float = 0.35,
) -> VirusTotalStore:
    """Synthesize VT data from the simulator's malicious-ownership spans.

    Each malicious owner runs URL campaigns and/or distributes files during
    their ownership window; vendor counts straddle the ≥5 threshold so the
    filter path is exercised (some campaigns go under-detected).
    """
    store = VirusTotalStore()
    for domain, _owner, start, end in malicious_ownership:
        window = max(1, end - start)
        if rng.bernoulli(url_activity_probability):
            category = rng.weighted_choice(URL_CATEGORIES, (367, 190, 128))
            vendor_count = rng.randint(2, 14)
            flagged_on = start + rng.randint(0, min(window, 120))
            vendors = rng.sample(_VENDORS, vendor_count)
            for vendor in vendors:
                store.add_url_verdict(
                    UrlVerdict(
                        domain=domain,
                        url=f"http://{domain}/{'landing' if category == 'phishing' else 'payload'}",
                        vendor=vendor,
                        category=category,
                        flagged_on=flagged_on,
                    )
                )
        if rng.bernoulli(file_activity_probability):
            category = rng.weighted_choice(
                [c for c, _ in MALWARE_CATEGORY_WEIGHTS],
                [w for _, w in MALWARE_CATEGORY_WEIGHTS],
            )
            vendor_count = rng.randint(3, 18)
            first_submission = start + rng.randint(0, min(window, 180))
            labels = _labels_for(category, rng, vendor_count)
            store.add_file_report(
                FileReport(
                    domain=domain,
                    sha256=f"{abs(rng.randint(0, 2 ** 62)):064x}"[:64],
                    vendor_labels=labels,
                    vendor_count=vendor_count,
                    first_submission=first_submission,
                    category=category,
                )
            )
    return store


_FAMILY_BY_CATEGORY = {
    "grayware": ("installcore", "opencandy"),
    "backdoor": ("njrat", "darkcomet"),
    "unknown": ("generic",),
    "downloader": ("emotet", "upatre"),
    "virus": ("virut", "sality"),
    "spyware": ("agenttesla", "formbook"),
    "ransomware": ("gandcrab", "stop"),
    "other": ("miner",),
}


def _labels_for(category: str, rng: RngStream, vendor_count: int) -> Tuple[str, ...]:
    family = rng.choice(_FAMILY_BY_CATEGORY.get(category, ("generic",)))
    styles = (
        f"Trojan.{family.capitalize()}.Gen",
        f"W32/{family}.A",
        f"{category}:{family}/variant",
        f"Mal/{family.capitalize()}-B",
    )
    return tuple(rng.choice(styles) for _ in range(min(vendor_count, 6)))
