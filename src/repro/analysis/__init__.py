"""Analysis layer: regenerates every table and figure of the paper.

Each builder consumes :class:`~repro.core.pipeline.PipelineResult` (plus the
relevant substrate outputs) and returns plain data structures; the
:mod:`repro.analysis.report` helpers render them as the text tables the
benchmark harness prints.
"""

from repro.analysis.aggregate import build_table3, build_table4
from repro.analysis.reputation_analysis import ReputationAnalysis, build_table5
from repro.analysis.popularity_analysis import build_table6
from repro.analysis.crl_coverage import build_table7
from repro.analysis.figures import (
    build_fig4,
    build_fig5a,
    build_fig5b,
    build_fig6,
    build_fig7,
    build_fig8,
    build_fig9,
)
from repro.analysis.report import render_table
from repro.analysis.summary import evaluate_claims, render_summary
from repro.analysis.corpus_stats import (
    automation_share_by_year,
    lifetime_by_policy_era,
    yearly_issuance,
)

__all__ = [
    "build_table3",
    "build_table4",
    "ReputationAnalysis",
    "build_table5",
    "build_table6",
    "build_table7",
    "build_fig4",
    "build_fig5a",
    "build_fig5b",
    "build_fig6",
    "build_fig7",
    "build_fig8",
    "build_fig9",
    "render_table",
    "evaluate_claims",
    "render_summary",
    "automation_share_by_year",
    "lifetime_by_policy_era",
    "yearly_issuance",
]
