"""Certificate-lifetime policy analysis (paper Section 6).

Simulates a world, measures third-party staleness, and evaluates the
45/90/215-day maximum-lifetime proposals via both estimators the paper uses:
survival analysis (how many stale certificates would be eliminated) and the
staleness-days capping experiment (how much exposure time disappears).

    python examples/lifetime_policy_analysis.py [scale]
"""

import sys

from repro import (
    LifetimePolicySimulator,
    MeasurementPipeline,
    StalenessClass,
    WorldConfig,
    simulate_world,
)
from repro.analysis.report import render_table

CLASSES = (
    StalenessClass.KEY_COMPROMISE,
    StalenessClass.REGISTRANT_CHANGE,
    StalenessClass.MANAGED_TLS_DEPARTURE,
)


def main(scale: float = 0.15) -> None:
    world = simulate_world(WorldConfig().scaled(scale))
    result = MeasurementPipeline(
        world.to_bundle(),
        revocation_cutoff_day=world.config.timeline.revocation_cutoff,
    ).run()
    findings = result.findings

    print("Survival analysis (Figure 8): share of stale certificates whose")
    print("invalidation event occurs more than N days after issuance -- the")
    print("optimistic upper bound on elimination under an N-day lifetime:\n")
    rows = []
    for cls in CLASSES:
        row = [cls.value]
        curve = findings.survival_curve(cls) if findings.of_class(cls) else None
        for cap in (45, 90, 215):
            value = curve.reduction_if_capped(cap) if curve else None
            row.append(f"{100 * value:.1f}%" if value is not None else "-")
        rows.append(row)
    print(render_table(["Class", "45d cap", "90d cap", "215d cap"], rows))

    print("\nStaleness-days capping experiment (Figure 9): pull expirations in")
    print("so no certificate lives longer than the cap, and re-measure:\n")
    simulator = LifetimePolicySimulator(findings)
    rows = []
    for cls in CLASSES:
        if not findings.of_class(cls):
            continue
        for cap_result in simulator.sweep(cls, (45, 90, 215)):
            rows.append(
                (
                    cls.value,
                    cap_result.cap_days,
                    f"{cap_result.baseline_staleness_days:,}",
                    f"{cap_result.capped_staleness_days:,}",
                    f"{100 * cap_result.staleness_days_reduction:.1f}%",
                )
            )
    print(
        render_table(
            ["Class", "Cap", "Baseline stale-days", "Capped stale-days", "Reduction"],
            rows,
        )
    )

    print("\nHeadline (paper abstract: 90-day maximum -> ~75% decrease):")
    for cap in (45, 90, 215):
        overall = simulator.overall_staleness_reduction(cap)
        print(f"  {cap:>3}-day maximum lifetime -> {100 * overall:5.1f}% "
              "fewer precarious staleness-days")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.15)
