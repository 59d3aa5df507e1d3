"""Observability hygiene: metric names and live-telemetry invariants.

RL301 — the batch pipeline, shard workers, and stream engine all report
into one metric namespace; a literal name at a call site (or a typo'd
constant) silently splits a series in two — half the findings counted
under one name, half under another — which is exactly the drift
``repro/obs/names.py`` exists to prevent.

RL302 — the live-telemetry equivalents: progress phases must be string
literals declared in ``repro.obs.names.PROGRESS_PHASES`` (an undeclared
or dynamic phase forks the timeline the same way a literal metric name
forks a series), and every ``threading.Thread`` in engine code must be
a daemon (a non-daemon sampler thread turns a crashed run into a hung
process — the one failure mode a heartbeat must never add).

Both rules consume the per-file call-site facts extracted by
:mod:`repro.lint.flow.facts` (``ObsUse`` records) instead of re-walking
ASTs.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set

from repro.lint.base import ProjectIndex, ProjectRule, register
from repro.lint.findings import Finding

NAMES_MODULE = "repro.obs.names"


@register
class MetricNameRule(ProjectRule):
    """RL301: metric names must be constants declared in repro.obs.names."""

    code = "RL301"
    name = "undeclared-metric-name"
    rationale = (
        "Batch, parallel, and stream runs share one metric namespace; a "
        "literal or undeclared name at a counter/gauge/histogram call "
        "site splits a time series in two the moment a second call site "
        "drifts, so every name must be a constant declared in "
        "repro.obs.names."
    )
    scope = ("src/repro/",)
    exclude = ("src/repro/obs/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        declared = index.metric_constants()
        for path in sorted(index.files):
            if not self.applies_to(path):
                continue
            facts = index.facts_for(path)
            if facts is None:
                continue
            for use in facts.obs_uses:
                message = self._message(use, declared)
                if message is not None:
                    yield Finding(
                        path=path,
                        line=use.line,
                        col=use.col,
                        code=self.code,
                        rule=self.name,
                        message=message,
                    )

    def _message(self, use, declared: Optional[Set[str]]) -> Optional[str]:
        if use.kind == "metric_literal":
            return (
                f"literal metric name {use.value!r}; declare it as a "
                f"constant in {NAMES_MODULE} and reference that"
            )
        if use.kind == "metric_foreign":
            return (
                f"metric name read from '{use.value}', not {NAMES_MODULE}; "
                "all names live in one module so series cannot drift"
            )
        if use.kind in ("metric_attr", "metric_name"):
            if declared is not None and use.value not in declared:
                return (
                    f"metric name constant '{use.value}' is not declared "
                    f"in {NAMES_MODULE}"
                )
            return None
        if use.kind == "metric_other":
            return (
                "metric name is not a repro.obs.names constant; dynamic "
                "names fragment the shared series namespace"
            )
        return None


@register
class LiveTelemetryRule(ProjectRule):
    """RL302: progress phases declared in names.py; samplers daemonized."""

    code = "RL302"
    name = "live-telemetry-hygiene"
    rationale = (
        "Live timelines aggregate by phase name across engines, so every "
        "phase_progress() call must pass a string literal declared in "
        "repro.obs.names.PROGRESS_PHASES — a dynamic or undeclared phase "
        "forks the timeline silently; and background threads in engine "
        "code must be daemon=True so a crashed run exits instead of "
        "hanging on its own sampler."
    )
    scope = ("src/repro/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        declared = index.progress_phases()
        for path in sorted(index.files):
            if not self.applies_to(path):
                continue
            facts = index.facts_for(path)
            if facts is None:
                continue
            for use in facts.obs_uses:
                message = self._message(use, declared)
                if message is not None:
                    yield Finding(
                        path=path,
                        line=use.line,
                        col=use.col,
                        code=self.code,
                        rule=self.name,
                        message=message,
                    )

    def _message(self, use, declared: Optional[Set[str]]) -> Optional[str]:
        if use.kind == "phase_missing":
            return "phase_progress() needs a literal phase name"
        if use.kind == "phase_dynamic":
            return (
                "progress phase must be a string literal (dynamic phase "
                "names fork the timeline and defeat this very check)"
            )
        if use.kind == "phase_literal":
            if declared is not None and use.value not in declared:
                return (
                    f"progress phase {use.value!r} is not declared in "
                    "repro.obs.names.PROGRESS_PHASES"
                )
            return None
        if use.kind == "thread_nondaemon":
            return (
                "threading.Thread in engine code must pass daemon=True; a "
                "non-daemon background thread keeps a crashed run alive"
            )
        return None
