"""The lint engine: file collection, rule dispatch, suppression.

Dependency-free by design — ``ast`` + the standard library only — so the
linter runs in CI before anything is installed and can never be broken
by the code it checks. Files are collected deterministically (sorted
walk), findings are reported in (path, line, col, code) order, and a
file that fails to parse is itself a finding (``RL000``) rather than a
crash. One serial pass reads and parses every file, runs the per-file
rules, then the project rules over the index of the parsed set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.base import (
    FileContext,
    ProjectIndex,
    ProjectRule,
    Rule,
    all_rules,
)
from repro.lint.findings import Finding
from repro.lint.suppress import is_suppressed

PARSE_ERROR_CODE = "RL000"

#: Directory names never descended into. ``lint_fixtures`` holds the test
#: corpus of deliberate violations; linting it would make the tree
#: permanently dirty.
SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    "build",
    "dist",
    "lint_fixtures",
    "node_modules",
}


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand *paths* (files or directories) into sorted ``.py`` files."""
    seen: Dict[str, None] = {}
    for path in paths:
        if os.path.isfile(path):
            seen.setdefault(_normalize(path))
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if d not in SKIP_DIRS and not d.endswith(".egg-info")
            )
            for name in sorted(names):
                if name.endswith(".py"):
                    seen.setdefault(_normalize(os.path.join(root, name)))
    return sorted(seen)


def _normalize(path: str) -> str:
    """Repo-relative POSIX path when under the cwd, else as given."""
    relative = os.path.relpath(path)
    if not relative.startswith(".."):
        path = relative
    return path.replace(os.sep, "/")


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts


class LintRunner:
    """Runs a rule set over a file set, applying inline suppressions."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules = list(rules) if rules is not None else all_rules()

    # -- entry points --------------------------------------------------------

    def run(self, paths: Sequence[str]) -> LintReport:
        files = collect_files(paths)
        findings = self._run_files(files)
        findings.sort(key=Finding.sort_key)
        return LintReport(findings=findings, files_scanned=len(files))

    def run_source(self, source: str, path: str) -> List[Finding]:
        """Lint one in-memory source under a synthetic *path* (tests)."""
        context, parse_finding = _parse(path, source)
        if parse_finding is not None:
            return [parse_finding]
        return self.run_contexts({path: context})

    def run_contexts(self, contexts: Dict[str, FileContext]) -> List[Finding]:
        findings: List[Finding] = []
        index = ProjectIndex(contexts)
        for path in sorted(contexts):
            context = contexts[path]
            for rule in self.rules:
                if isinstance(rule, ProjectRule) or not rule.applies_to(path):
                    continue
                findings.extend(rule.check(context))
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                findings.extend(rule.check_project(index))
        return self._suppress_and_sort(findings, index)

    # -- internals -----------------------------------------------------------

    def _run_files(self, files: List[str]) -> List[Finding]:
        contexts: Dict[str, FileContext] = {}
        findings: List[Finding] = []
        for path in files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as error:
                findings.append(_io_finding(path, str(error)))
                continue
            context, parse_finding = _parse(path, source)
            if parse_finding is not None:
                findings.append(parse_finding)
                continue
            contexts[path] = context
        findings.extend(self.run_contexts(contexts))
        return findings

    def _suppress_and_sort(
        self, findings: List[Finding], index: ProjectIndex
    ) -> List[Finding]:
        cache: Dict[str, Dict] = {}

        def suppressions(path: str) -> Dict:
            if path not in cache:
                cache[path] = index.suppressions_for(path)
            return cache[path]

        kept = [
            finding for finding in findings
            if not is_suppressed(
                suppressions(finding.path), finding.line, finding.code
            )
        ]
        kept.sort(key=Finding.sort_key)
        return kept


def _parse(
    path: str, source: str
) -> Tuple[Optional[FileContext], Optional[Finding]]:
    try:
        return FileContext.parse(path, source), None
    except SyntaxError as error:
        return None, Finding(
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 1),
            code=PARSE_ERROR_CODE,
            rule="parse-error",
            message=f"file does not parse: {error.msg}",
        )


def _io_finding(path: str, message: str) -> Finding:
    return Finding(
        path=path,
        line=1,
        col=1,
        code=PARSE_ERROR_CODE,
        rule="io-error",
        message=f"file is unreadable: {message}",
    )
