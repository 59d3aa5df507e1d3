"""CLI entry point for ``python -m repro lint`` (argument handling lives
in :mod:`repro.cli`; this module turns parsed args into a lint run).

Exit codes: 0 clean (no new findings, no stale baseline entries), 1
findings or stale baseline, 2 usage/IO errors.
"""

from __future__ import annotations

import os
import sys
from typing import List

from repro.lint.base import all_rules
from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.engine import LintRunner
from repro.lint.fixes import fix_files
from repro.lint.reporters import render_json, render_text

DEFAULT_PATHS = ("src", "tests")


def run_cli(args) -> int:
    if getattr(args, "list_rules", False):
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}" + ("  [fixable]" if rule.fixable else ""))
            print(f"       {rule.rationale}")
        return 0

    paths: List[str] = list(getattr(args, "paths", None) or DEFAULT_PATHS)
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline = None
    baseline_path = getattr(args, "baseline", None) or DEFAULT_BASELINE_NAME
    explicit_baseline = getattr(args, "baseline", None) is not None
    if os.path.exists(baseline_path):
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError) as error:
            print(f"error: cannot load baseline: {error}", file=sys.stderr)
            return 2
    elif explicit_baseline and not getattr(args, "update_baseline", False):
        print(f"error: baseline not found: {baseline_path}", file=sys.stderr)
        return 2

    runner = LintRunner(baseline=baseline)
    report = runner.run(paths)

    if getattr(args, "fix", False):
        fixed = fix_files(report.findings, sources=runner.last_sources)
        if fixed:
            total = sum(fixed.values())
            print(
                f"fixed {total} finding(s) in {len(fixed)} file(s): "
                + ", ".join(sorted(fixed)),
                file=sys.stderr,
            )
            # Re-lint so the report describes the post-fix tree.
            report = runner.run(paths)

    if getattr(args, "update_baseline", False):
        Baseline.from_findings(report.findings).save(baseline_path)
        print(
            f"wrote baseline with {len(report.findings)} entr"
            f"{'y' if len(report.findings) == 1 else 'ies'} to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    if getattr(args, "format", "text") == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.clean else 1
