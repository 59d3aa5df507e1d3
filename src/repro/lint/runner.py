"""CLI entry point for ``python -m repro lint`` (argument handling lives
in :mod:`repro.cli`; this module turns parsed args into a lint run).

Exit codes: 0 clean, 1 findings, 2 usage/IO errors.
"""

from __future__ import annotations

import os
import sys
from typing import List

from repro.lint.base import all_rules
from repro.lint.engine import LintRunner
from repro.lint.reporters import render_text

DEFAULT_PATHS = ("src", "tests")


def run_cli(args) -> int:
    if getattr(args, "list_rules", False):
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"       {rule.rationale}")
        return 0

    paths: List[str] = list(getattr(args, "paths", None) or DEFAULT_PATHS)
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = LintRunner().run(paths)
    print(render_text(report))
    return 0 if report.clean else 1
