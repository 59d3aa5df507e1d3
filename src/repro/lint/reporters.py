"""Text rendering of a :class:`~repro.lint.engine.LintReport`."""

from __future__ import annotations

from typing import List

from repro.lint.engine import LintReport


def render_text(report: LintReport) -> str:
    lines: List[str] = [finding.render() for finding in report.findings]
    counts = report.counts_by_code()
    if counts:
        summary = ", ".join(f"{code}×{count}" for code, count in sorted(counts.items()))
        lines.append(
            f"{len(report.findings)} finding(s) in {report.files_scanned} "
            f"file(s): {summary}"
        )
    else:
        lines.append(f"clean: {report.files_scanned} file(s), 0 findings")
    return "\n".join(lines)
