"""Key-compromise staleness via revocation cross-referencing (paper §4.1).

Pipeline, exactly as the paper describes:

1. Merge the daily CRL collections into one revocation set keyed by
   (authority key id, serial).
2. Cross-reference against the CT corpus to recover certificate content
   (CRLs carry no certificate copy).
3. Filter outliers: revoked before validity began, revoked after expiration,
   and revoked more than 13 months before CRL collection started (stale CRL
   baggage, not contemporary revocation behaviour).
4. Every surviving revocation is a reported invalidation event
   (``REVOKED_ALL``); entries whose reason is keyCompromise form the
   third-party ``KEY_COMPROMISE`` class.

The staleness period conservatively assumes the revocation was issued as
soon as the invalidation occurred: it runs from the revocation day to
notAfter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ct.dedup import Corpus
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings
from repro.pki.certificate import Certificate
from repro.revocation.crl import CertificateRevocationList, CrlEntry, merge_entry
from repro.revocation.reasons import RevocationReason
from repro.util.dates import Day

RevocationKey = Tuple[str, int]


@dataclass
class RevocationJoinStats:
    """Accounting mirroring the paper's reported filter counts."""

    crl_entries_merged: int = 0
    matched_in_ct: int = 0
    unmatched: int = 0
    filtered_revoked_before_valid: int = 0
    filtered_revoked_after_expiration: int = 0
    filtered_before_cutoff: int = 0
    survivors: int = 0

    @classmethod
    def of(cls, outcomes: Iterable[str]) -> "RevocationJoinStats":
        """Tally merged entries by their :func:`revocation_outcome`."""
        stats = cls()
        for outcome in outcomes:
            stats.crl_entries_merged += 1
            if outcome != "unmatched":
                stats.matched_in_ct += 1
            setattr(stats, outcome, getattr(stats, outcome) + 1)
        return stats


def revocation_outcome(entry: CrlEntry, certificate, cutoff: Optional[Day]) -> str:
    """The :class:`RevocationJoinStats` field one merged entry lands in.

    Steps 2 and 3 of the pipeline: an entry without a CT certificate is
    ``unmatched``; the three outlier filters apply in the paper's order;
    whatever passes them is one of the ``survivors``. Only the
    certificate's ``not_before``/``not_after`` are read, so a columnar
    match can pass its validity columns before the certificate is built.
    """
    if certificate is None:
        return "unmatched"
    if entry.revocation_day < certificate.not_before:
        return "filtered_revoked_before_valid"
    if entry.revocation_day > certificate.not_after:
        return "filtered_revoked_after_expiration"
    if cutoff is not None and entry.revocation_day < cutoff:
        return "filtered_before_cutoff"
    return "survivors"


def revocation_findings(entry: CrlEntry, certificate: Certificate) -> List[StaleCertificate]:
    """Step 4: the ``REVOKED_ALL`` finding, plus ``KEY_COMPROMISE`` when
    that is the entry's reason, stale from the revocation day (clamped to
    the validity window) to notAfter."""
    day = min(max(entry.revocation_day, certificate.not_before), certificate.not_after)
    classes = [StalenessClass.REVOKED_ALL]
    if entry.reason is RevocationReason.KEY_COMPROMISE:
        classes.append(StalenessClass.KEY_COMPROMISE)
    return [
        StaleCertificate(
            certificate=certificate,
            staleness_class=staleness_class,
            invalidation_day=day,
            detail=f"reason={entry.reason.name.lower()}",
        )
        for staleness_class in classes
    ]


class KeyCompromiseDetector:
    """Cross-references CRL entries against a CT corpus.

    :meth:`add_crl` folds one CRL's entries into the merged view (step 1,
    earliest revocation day per key) and joins each entry that changes it
    (steps 2–4); the stream engine calls it per compacted CRL delta, and
    :meth:`detect` calls it over a whole series. A revision to an earlier
    day replaces the key's findings, so :meth:`findings` is the converged
    view.
    """

    def __init__(
        self,
        corpus: Corpus,
        revocation_cutoff_day: Optional[Day] = None,
    ) -> None:
        """``revocation_cutoff_day``: drop revocations before this day
        (the paper uses 13 months prior to CRL collection start)."""
        self._corpus = corpus
        self._cutoff = revocation_cutoff_day
        self._apply_filters = True
        self._merged: Dict[RevocationKey, CrlEntry] = {}
        #: Per merged key: its outcome and current findings.
        self._joined: Dict[RevocationKey, Tuple[str, List[StaleCertificate]]] = {}

    def add_crl(
        self, authority_key_id: str, entries: Iterable[CrlEntry]
    ) -> List[StaleCertificate]:
        """Merge and join one CRL's *entries*; returns the findings they
        set (a revised key's replace its earlier ones in :meth:`findings`)."""
        emitted: List[StaleCertificate] = []
        for entry in entries:
            key = (authority_key_id, entry.serial)
            if not merge_entry(self._merged, key, entry):
                continue
            # The match carries the validity the filters read; only the
            # survivors' certificates are built.
            matched = self._corpus.revocation_match(key)
            outcome = revocation_outcome(entry, matched, self._cutoff)
            if not self._apply_filters and matched is not None:
                outcome = "survivors"
            found: List[StaleCertificate] = []
            if outcome == "survivors":
                found = revocation_findings(entry, self._corpus.certificate(matched.row))
            self._joined[key] = (outcome, found)
            emitted.extend(found)
        return emitted

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: entries join on arrival."""
        return []

    def findings(self) -> List[StaleCertificate]:
        return [finding for _, found in self._joined.values() for finding in found]

    @property
    def stats(self) -> RevocationJoinStats:
        return RevocationJoinStats.of(outcome for outcome, _ in self._joined.values())

    def detect(
        self,
        crls: Iterable[CertificateRevocationList],
        findings: Optional[StaleFindings] = None,
        apply_filters: bool = True,
    ) -> StaleFindings:
        """Run the pipeline; appends to (and returns) *findings*.

        ``apply_filters=False`` disables step 3 for the ablation bench that
        quantifies the filters' effect.
        """
        out = findings if findings is not None else StaleFindings()
        self._apply_filters = apply_filters
        for crl in crls:
            self.add_crl(crl.authority_key_id, crl.entries)
        out.extend(self.findings())
        return out
