"""The indexed findings store behind the staleness query service.

The operational question the paper poses — "is this domain exposed
through a stale certificate, and for how long?" — should not require
re-running a detection pipeline or scanning a findings file. A
:class:`FindingsIndex` is built **once** from a
:class:`~repro.core.pipeline.PipelineResult` (``repro serve`` runs the
pipeline over its bundle first) and answers every query shape the API
serves with plain dict lookups and ``bisect`` slices:

* hash maps keyed by **registered domain** (e2LD) and by **issuer**,
  holding indices into one canonically-ordered record list;
* **pre-sorted arrays** per staleness class (staleness days,
  days-to-invalidation) so percentile and survival slices are
  ``O(log n)`` bisects over data sorted at build time;
* **precomputed aggregate tables** (by class, by issuer, by year) that
  reproduce the batch pipeline's Table 4 numbers exactly;
* lifetime-cap what-ifs delegated to
  :class:`~repro.core.lifetime.LifetimePolicySimulator` — the same code
  path Section 6 uses — memoized per cap so the 45/90/215 grid and any
  ad-hoc cap (e.g. the 47-day CA/B ballot) cost one evaluation ever.

The warm path never touches pipeline code: every response field either
exists verbatim in a precomputed structure or is a bisect over one.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.lifetime import LifetimePolicySimulator
from repro.core.pipeline import PipelineResult
from repro.core.stale import StaleCertificate, StalenessClass, canonical_order_key
from repro.obs import get_registry, names, phase_progress, span
from repro.psl.registered import e2ld
from repro.util.dates import Day, day_to_iso, year_of

#: Largest lifetime cap (days) a what-if query may ask for; bounds the
#: per-cap memo so an adversarial query stream cannot grow it unboundedly.
MAX_CAP_DAYS = 3650

#: Classes the lifetime-cap what-if sweeps (the paper's Section 6 scope).
_CAP_CLASSES = (
    StalenessClass.KEY_COMPROMISE,
    StalenessClass.REGISTRANT_CHANGE,
    StalenessClass.MANAGED_TLS_DEPARTURE,
)


def _percentile_sorted(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile over an **already sorted** sequence.

    Same interpolation as :func:`repro.util.stats.percentile`, minus the
    sort — the index sorts once at build time, so evaluation is O(1).
    """
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if len(ordered) == 1:
        return float(ordered[0])
    position = (pct / 100.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return float(ordered[lower]) * (1 - fraction) + float(ordered[upper]) * fraction


def _finding_record(finding: StaleCertificate) -> dict:
    """The JSON-ready projection of one finding, built once at index time."""
    certificate = finding.certificate
    return {
        "staleness_class": finding.staleness_class.value,
        "issuer": certificate.issuer_name,
        "serial": certificate.serial,
        "authority_key_id": certificate.authority_key_id,
        "not_before": day_to_iso(certificate.not_before),
        "not_after": day_to_iso(certificate.not_after),
        "invalidation": day_to_iso(finding.invalidation_day),
        "staleness_days": finding.staleness_days,
        "days_to_invalidation": finding.days_to_invalidation,
        "affected_domain": finding.affected_domain,
        "detail": finding.detail,
    }


class FindingsIndex:
    """Read-optimized, query-ready view of one measurement run.

    Construction walks the findings once; every accessor afterwards is
    dict/bisect work over structures frozen at build time.
    """

    def __init__(self, result: PipelineResult) -> None:
        started = perf_counter()
        with span("serve_index_build"):
            self._build(result)
        self.build_seconds = perf_counter() - started
        registry = get_registry()
        registry.gauge(
            names.SERVE_INDEX_FINDINGS, names.SERVE_INDEX_FINDINGS_HELP
        ).set(len(self._records))
        registry.gauge(
            names.SERVE_INDEX_BUILD_SECONDS, names.SERVE_INDEX_BUILD_SECONDS_HELP
        ).set(self.build_seconds)

    # -- build ---------------------------------------------------------------

    def _build(self, result: PipelineResult) -> None:
        findings = sorted(result.findings.all_findings(), key=canonical_order_key)
        progress = phase_progress("serve_index_build")
        progress.set_total(len(findings))
        self._records: List[dict] = []
        for finding in findings:
            self._records.append(_finding_record(finding))
            progress.add(1)
        self._stale_from: List[Day] = [f.stale_from for f in findings]
        self._stale_until: List[Day] = [f.stale_until for f in findings]

        by_domain: Dict[str, List[int]] = {}
        by_issuer: Dict[str, List[int]] = {}
        staleness: Dict[str, List[int]] = {}
        dti: Dict[str, List[int]] = {}
        class_counts: Dict[str, int] = {}
        for position, finding in enumerate(findings):
            for registered in sorted(finding.affected_e2lds()):
                by_domain.setdefault(registered, []).append(position)
            by_issuer.setdefault(finding.certificate.issuer_name, []).append(position)
            cls_value = finding.staleness_class.value
            staleness.setdefault(cls_value, []).append(finding.staleness_days)
            dti.setdefault(cls_value, []).append(finding.days_to_invalidation)
            class_counts[cls_value] = class_counts.get(cls_value, 0) + 1
        for values in staleness.values():
            values.sort()
        for values in dti.values():
            values.sort()
        self._by_domain = by_domain
        self._by_issuer = by_issuer
        self._staleness_sorted = staleness
        self._dti_sorted = dti
        self._class_counts = class_counts
        self._domains: List[str] = sorted(by_domain)

        self._aggregates_by_class = self._build_class_aggregates(result)
        self._aggregates_by_issuer = self._build_issuer_aggregates(findings)
        self._aggregates_by_year = self._build_year_aggregates(findings)

        # Section 6 cap math stays in repro.core.lifetime; the index only
        # memoizes whole evaluations so repeat caps are O(1) lookups.
        self._simulator = LifetimePolicySimulator(result.findings)
        self._cap_classes = tuple(
            cls for cls in _CAP_CLASSES if result.findings.of_class(cls)
        )
        self._cap_cache: Dict[int, List[dict]] = {}
        self._overall_cache: Dict[int, float] = {}

    def _build_class_aggregates(self, result: PipelineResult) -> List[dict]:
        rows: List[dict] = []
        for aggregate in result.aggregate_table():
            cls_value = aggregate.staleness_class.value
            ordered = self._staleness_sorted.get(cls_value, [])
            rows.append(
                {
                    "class": cls_value,
                    "first_day": day_to_iso(aggregate.first_day),
                    "last_day": day_to_iso(aggregate.last_day),
                    "stale_certificates": aggregate.stale_certificates,
                    "stale_fqdns": aggregate.stale_fqdns,
                    "stale_e2lds": aggregate.stale_e2lds,
                    "daily_certificates": aggregate.daily_certificates,
                    "daily_e2lds": aggregate.daily_e2lds,
                    "staleness_days_total": sum(ordered),
                    "median_staleness_days": (
                        _percentile_sorted(ordered, 50.0) if ordered else None
                    ),
                }
            )
        return rows

    def _build_issuer_aggregates(
        self, findings: Sequence[StaleCertificate]
    ) -> List[dict]:
        table: Dict[str, dict] = {}
        for finding in findings:
            row = table.setdefault(
                finding.certificate.issuer_name,
                {"findings": 0, "staleness_days_total": 0, "classes": {}},
            )
            row["findings"] += 1
            row["staleness_days_total"] += finding.staleness_days
            cls_value = finding.staleness_class.value
            row["classes"][cls_value] = row["classes"].get(cls_value, 0) + 1
        return [
            {"issuer": issuer, **table[issuer]} for issuer in sorted(table)
        ]

    def _build_year_aggregates(
        self, findings: Sequence[StaleCertificate]
    ) -> List[dict]:
        table: Dict[int, dict] = {}
        for finding in findings:
            year = year_of(finding.invalidation_day)
            row = table.setdefault(
                year, {"findings": 0, "staleness_days_total": 0}
            )
            row["findings"] += 1
            row["staleness_days_total"] += finding.staleness_days
        return [{"year": year, **table[year]} for year in sorted(table)]

    # -- queries (the warm path) ---------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def domains(self) -> List[str]:
        """Every registered domain with at least one finding, sorted."""
        return list(self._domains)

    def stats(self) -> dict:
        """The /health payload: index shape plus build cost."""
        return {
            "findings": len(self._records),
            "domains": len(self._by_domain),
            "issuers": len(self._by_issuer),
            "classes": dict(self._class_counts),
            "build_seconds": round(self.build_seconds, 6),
        }

    def domain(self, name: str, on_day: Optional[Day] = None) -> Optional[dict]:
        """Per-domain findings across all staleness classes.

        *name* is normalized to its registered domain, so querying
        ``www.example.com`` answers for ``example.com``. ``on_day``
        restricts to findings whose staleness window covers that day.
        Returns ``None`` for a domain with no indexed findings; raises
        ``ValueError`` for a syntactically invalid name (the caller maps
        that to a 400, not a 404).
        """
        normalized = name.strip().strip(".").lower()
        key = e2ld(normalized) or normalized
        positions = self._by_domain.get(key)
        if positions is None:
            return None
        if on_day is not None:
            positions = [
                p
                for p in positions
                if self._stale_from[p] <= on_day <= self._stale_until[p]
            ]
        classes: Dict[str, int] = {}
        for position in positions:
            cls_value = self._records[position]["staleness_class"]
            classes[cls_value] = classes.get(cls_value, 0) + 1
        return {
            "domain": key,
            "queried": name,
            "on": day_to_iso(on_day) if on_day is not None else None,
            "exposed": bool(positions),
            "classes": classes,
            "findings": [self._records[p] for p in positions],
        }

    def aggregates(self, by: str) -> List[dict]:
        """Precomputed aggregate rows, grouped ``by`` class, issuer, or year."""
        if by == "class":
            return list(self._aggregates_by_class)
        if by == "issuer":
            return list(self._aggregates_by_issuer)
        if by == "year":
            return list(self._aggregates_by_year)
        raise ValueError(f"unknown aggregation axis {by!r}")

    def survival(
        self, staleness_class: StalenessClass, at: Sequence[int]
    ) -> dict:
        """Survival-curve slice (Figure 8) for one class.

        ``S(t)`` is the share of findings whose invalidation event lands
        strictly after day *t* of the certificate lifetime — one
        ``bisect_right`` over the pre-sorted days-to-invalidation array,
        numerically identical to
        :meth:`repro.util.stats.SurvivalCurve.survival_at`.
        """
        ordered = self._dti_sorted.get(staleness_class.value, [])
        n = len(ordered)
        entry: dict = {"class": staleness_class.value, "n": n}
        if n:
            entry["median_days_to_invalidation"] = _percentile_sorted(ordered, 50.0)
            entry["survival"] = {
                str(t): 1.0 - bisect_right(ordered, t) / n for t in at
            }
        else:
            entry["median_days_to_invalidation"] = None
            entry["survival"] = {}
        return entry

    def survival_classes(self) -> Tuple[StalenessClass, ...]:
        """Classes with at least one finding, in the paper's order."""
        return tuple(
            cls
            for cls in StalenessClass
            if self._dti_sorted.get(cls.value)
        )

    def caps(self, caps: Sequence[int]) -> dict:
        """Lifetime-cap what-ifs (Section 6 / Figure 9) for the given caps.

        Every cap is evaluated through
        :class:`~repro.core.lifetime.LifetimePolicySimulator` exactly once
        per index lifetime; results are memoized so the 45/90/215 grid —
        or a hot ad-hoc cap like 47 — is a dict hit on the warm path.
        """
        rows: List[dict] = []
        overall: List[dict] = []
        seen: List[int] = []
        for cap in caps:
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise ValueError(f"cap must be an integer day count, got {cap!r}")
            if not 0 < cap <= MAX_CAP_DAYS:
                raise ValueError(
                    f"cap {cap} outside (0, {MAX_CAP_DAYS}] days"
                )
            if cap in seen:
                continue
            seen.append(cap)
            rows.extend(self._cap_rows(cap))
            overall.append(
                {
                    "cap_days": cap,
                    "staleness_days_reduction": self._overall_reduction(cap),
                }
            )
        return {"caps": seen, "classes": rows, "overall": overall}

    def _cap_rows(self, cap: int) -> List[dict]:
        cached = self._cap_cache.get(cap)
        if cached is None:
            cached = []
            for cls in self._cap_classes:
                result = self._simulator.evaluate(cls, cap)
                cached.append(
                    {
                        "class": cls.value,
                        "cap_days": cap,
                        "baseline_staleness_days": result.baseline_staleness_days,
                        "capped_staleness_days": result.capped_staleness_days,
                        "staleness_days_reduction": result.staleness_days_reduction,
                        "certificate_reduction": result.certificate_reduction,
                    }
                )
            self._cap_cache[cap] = cached
        return list(cached)

    def _overall_reduction(self, cap: int) -> float:
        value = self._overall_cache.get(cap)
        if value is None:
            value = self._simulator.overall_staleness_reduction(cap)
            self._overall_cache[cap] = value
        return value
