"""Executive summary: the paper's takeaways, checked against a world.

Collects the headline claims from the abstract and section takeaways and
evaluates each on a :class:`~repro.core.pipeline.PipelineResult`, rendering
a pass/fail scorecard. This is the one-page artifact a reviewer reads first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import render_table
from repro.core.lifetime import LifetimePolicySimulator
from repro.core.pipeline import PipelineResult
from repro.core.stale import StalenessClass
from repro.util.stats import median

_THIRD_PARTY = (
    StalenessClass.KEY_COMPROMISE,
    StalenessClass.REGISTRANT_CHANGE,
    StalenessClass.MANAGED_TLS_DEPARTURE,
)


@dataclass(frozen=True)
class ClaimCheck:
    """One evaluated claim."""

    claim: str
    paper_value: str
    measured_value: str
    holds: bool


def evaluate_claims(result: PipelineResult) -> List[ClaimCheck]:
    """Evaluate every checkable headline claim; missing data fails safe."""
    checks: List[ClaimCheck] = []
    findings = result.findings

    def add(claim: str, paper: str, measured: str, holds: bool) -> None:
        checks.append(ClaimCheck(claim, paper, measured, holds))

    # §5.4: daily e2LD ordering across the three classes.
    rates = {}
    for cls in _THIRD_PARTY:
        aggregate = findings.aggregate(cls, result.windows.get(cls))
        rates[cls] = aggregate.daily_e2lds if aggregate else 0.0
    ordering = (
        rates[StalenessClass.MANAGED_TLS_DEPARTURE]
        > rates[StalenessClass.REGISTRANT_CHANGE]
        > rates[StalenessClass.KEY_COMPROMISE]
    )
    add(
        "daily stale-e2LD rates order managed TLS > registrant change > key compromise",
        "7,722 > 1,214 > 347 per day",
        " > ".join(
            f"{rates[cls]:.2f}" for cls in (
                StalenessClass.MANAGED_TLS_DEPARTURE,
                StalenessClass.REGISTRANT_CHANGE,
                StalenessClass.KEY_COMPROMISE,
            )
        ),
        ordering,
    )

    # Figure 6: median staleness ordering.
    medians = {}
    for cls in _THIRD_PARTY:
        items = findings.of_class(cls)
        medians[cls] = median([f.staleness_days for f in items]) if items else 0.0
    add(
        "median staleness: key compromise > managed TLS > registrant change",
        "398d > 300d > 90d",
        " > ".join(
            f"{medians[cls]:.0f}d" for cls in (
                StalenessClass.KEY_COMPROMISE,
                StalenessClass.MANAGED_TLS_DEPARTURE,
                StalenessClass.REGISTRANT_CHANGE,
            )
        ),
        medians[StalenessClass.KEY_COMPROMISE]
        > medians[StalenessClass.MANAGED_TLS_DEPARTURE]
        > medians[StalenessClass.REGISTRANT_CHANGE],
    )

    # §5.4: over half of staleness periods exceed 90 days (kc + managed).
    for cls, label in (
        (StalenessClass.KEY_COMPROMISE, "key compromise"),
        (StalenessClass.MANAGED_TLS_DEPARTURE, "managed TLS"),
    ):
        items = findings.of_class(cls)
        over = (
            sum(1 for f in items if f.staleness_days > 90) / len(items)
            if items
            else 0.0
        )
        add(
            f">50% of {label} staleness periods exceed 90 days",
            ">50%",
            f"{100 * over:.0f}%",
            over > 0.5,
        )

    # Figure 8: key compromise reported fast.
    items = findings.of_class(StalenessClass.KEY_COMPROMISE)
    fast = (
        sum(1 for f in items if f.days_to_invalidation <= 90) / len(items)
        if items
        else 0.0
    )
    add(
        "~99% of key compromise occurs within 90 days of issuance",
        "99%",
        f"{100 * fast:.0f}%",
        fast > 0.8,
    )

    # Abstract: 90-day cap cuts most staleness-days.
    simulator = LifetimePolicySimulator(findings)
    overall = simulator.overall_staleness_reduction(90)
    add(
        "a 90-day maximum lifetime removes most precarious staleness-days",
        "~75%",
        f"{100 * overall:.0f}%",
        overall > 0.5,
    )

    # Table 4: revoked-all dwarfs key compromise.
    revoked_all = len(findings.of_class(StalenessClass.REVOKED_ALL))
    key_compromise = len(findings.of_class(StalenessClass.KEY_COMPROMISE))
    add(
        "key compromise is a small fraction of all revocations",
        "2.42%",
        f"{100 * key_compromise / revoked_all:.1f}%" if revoked_all else "n/a",
        bool(revoked_all) and key_compromise < 0.25 * revoked_all,
    )
    return checks


def render_summary(result: PipelineResult, title: str = "Reproduction scorecard") -> str:
    checks = evaluate_claims(result)
    rows = [
        (
            "PASS" if check.holds else "FAIL",
            check.claim,
            check.paper_value,
            check.measured_value,
        )
        for check in checks
    ]
    passed = sum(1 for check in checks if check.holds)
    header = f"{title} — {passed}/{len(checks)} claims hold"
    return render_table(["", "Claim", "Paper", "Measured"], rows, title=header)
