"""Text and JSON rendering of a :class:`~repro.lint.engine.LintReport`."""

from __future__ import annotations

import json
from typing import List

from repro.lint.engine import LintReport

JSON_SCHEMA_VERSION = 1


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


def render_json(report: LintReport) -> str:
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_scanned": report.files_scanned,
        "clean": report.clean,
        "findings": [finding.to_record() for finding in report.findings],
        "counts": report.counts_by_code(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
