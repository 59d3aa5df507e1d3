"""The lint engine: file collection, rule dispatch, suppression, baseline.

Dependency-free by design — ``ast`` + the standard library only — so the
linter runs in CI before anything is installed and can never be broken
by the code it checks. Files are collected deterministically (sorted
walk), findings are reported in (path, line, col, code) order, and a
file that fails to parse is itself a finding (``RL000``) rather than a
crash.

With ``jobs > 1`` the read/parse/per-file-rule/fact-extraction phase
fans out over a process pool; workers return picklable findings plus
:class:`~repro.lint.flow.facts.ModuleFacts` (never ASTs), and the parent
assembles the whole-program index for the cross-file rules. The final
sort guarantees output is byte-identical for every worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.base import (
    FileContext,
    ProjectIndex,
    ProjectRule,
    Rule,
    all_rules,
)
from repro.lint.baseline import Baseline
from repro.lint.findings import Finding
from repro.lint.suppress import is_suppressed, parse_suppressions

PARSE_ERROR_CODE = "RL000"

#: Below this file count the pool costs more than it saves.
_MIN_FILES_FOR_POOL = 8

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
    baselined: List[Finding] = field(default_factory=list)
    #: Baseline entries no finding matched — removable.
    unused_baseline: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Baseline entries naming files that no longer exist — an error.
    stale_baseline: List[str] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.stale_baseline

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts


class _LazyFileMap:
    """Mapping of path → :class:`FileContext`, parsed from disk on access.

    The parallel engine's parent process hands this to the project index
    so cross-file rules that genuinely need a parse (the metric rules
    open ``repro/obs/names.py``) get one, while everything fact-driven touches
    no AST at all. Files that fail to read or parse on access simply
    disappear from ``get`` — their findings were already reported by the
    worker that first saw them.
    """

    def __init__(self, paths: Sequence[str]) -> None:
        self._paths = sorted(paths)
        self._path_set = set(self._paths)
        self._cache: Dict[str, Optional[FileContext]] = {}

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: str) -> bool:
        return path in self._path_set

    def __getitem__(self, path: str) -> FileContext:
        context = self.get(path)
        if context is None:
            raise KeyError(path)
        return context

    def get(self, path: str, default: Optional[FileContext] = None):
        if path not in self._cache:
            context: Optional[FileContext] = None
            if path in self._path_set:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        context = FileContext.parse(path, handle.read())
                except (OSError, SyntaxError):
                    context = None
            self._cache[path] = context
        found = self._cache[path]
        return found if found is not None else default


def _analyze_file(path: str):
    """Worker-side analysis of one file (also the serial building block).

    Returns ``(path, findings, facts)`` — findings from the per-file
    rules (or the RL000 parse/IO finding), and extracted module facts
    (``None`` when the file did not parse or extraction failed). All
    three are plain picklable values.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        return (path, [_io_finding(path, str(error))], None)
    context, parse_finding = _parse(path, source)
    if parse_finding is not None:
        return (path, [parse_finding], None)
    findings: List[Finding] = []
    for rule in all_rules():
        if isinstance(rule, ProjectRule) or not rule.applies_to(path):
            continue
        findings.extend(rule.check(context))
    from repro.lint.flow.facts import extract_module_facts

    try:
        facts = extract_module_facts(path, tree=context.tree,
                                     lines=context.lines)
    except Exception:  # repro-lint: disable=RL502  # facts are optional; the file's own findings were already kept
        facts = None
    return (path, findings, facts)


class LintRunner:
    """Runs a rule set over a file set, applying suppressions + baseline."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        baseline: Optional[Baseline] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self._custom_rules = rules is not None
        self.rules = list(rules) if rules is not None else all_rules()
        self.baseline = baseline
        self.jobs = jobs
        #: Set by :meth:`run`: the project index of the last run (for
        #: ``--dump-graph``) and the sources it read (for zero-re-read
        #: ``--fix``; empty after a parallel run, where workers read).
        self.last_index: Optional[ProjectIndex] = None
        self.last_sources: Dict[str, str] = {}

    # -- entry points --------------------------------------------------------

    def run(self, paths: Sequence[str]) -> LintReport:
        files = collect_files(paths)
        jobs = self._effective_jobs(len(files))
        if jobs > 1:
            findings = self._run_parallel(files, jobs)
        else:
            findings = self._run_serial(files)
        report = LintReport(files_scanned=len(files))
        self._finish(report, findings)
        return report

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
        self.last_index = index
        return self._suppress_and_sort(findings, index)

    # -- execution strategies ------------------------------------------------

    def _effective_jobs(self, file_count: int) -> int:
        if self._custom_rules:
            return 1  # a custom rule set may not be picklable/importable
        jobs = self.jobs if self.jobs is not None else 1
        if jobs < 2 or file_count < _MIN_FILES_FOR_POOL:
            return 1
        return min(jobs, file_count)

    def _run_serial(self, files: List[str]) -> List[Finding]:
        contexts: Dict[str, FileContext] = {}
        findings: List[Finding] = []
        self.last_sources = {}
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
            self.last_sources[path] = source
        findings.extend(self.run_contexts(contexts))
        return findings

    def _run_parallel(self, files: List[str], jobs: int) -> List[Finding]:
        from concurrent.futures import ProcessPoolExecutor

        self.last_sources = {}
        findings: List[Finding] = []
        facts_map: Dict[str, object] = {}
        parsed_paths: List[str] = []
        chunksize = max(1, len(files) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for path, file_findings, facts in pool.map(
                _analyze_file, files, chunksize=chunksize
            ):
                findings.extend(file_findings)
                if facts is not None:
                    facts_map[path] = facts
                    parsed_paths.append(path)
        index = ProjectIndex(_LazyFileMap(parsed_paths), facts=facts_map)
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                findings.extend(rule.check_project(index))
        self.last_index = index
        return self._suppress_and_sort(findings, index)

    # -- internals -----------------------------------------------------------

    def _suppress_and_sort(
        self, findings: List[Finding], index: ProjectIndex
    ) -> List[Finding]:
        cache: Dict[str, Dict] = {}

        def suppressions(path: str) -> Dict:
            if path not in cache:
                cache[path] = index.suppressions_for(path)
            return cache[path]

        kept: List[Finding] = []
        for finding in findings:
            if is_suppressed(
                suppressions(finding.path), finding.line, finding.code
            ):
                continue
            # Path findings (RL701) may be suppressed at the *source* end
            # of the hop chain too — the justification comment belongs
            # wherever it explains the most.
            if finding.hops:
                source_hop = finding.hops[0]
                if is_suppressed(
                    suppressions(source_hop.path), source_hop.line,
                    finding.code,
                ):
                    continue
            kept.append(finding)
        kept.sort(key=Finding.sort_key)
        return kept

    def _finish(self, report: LintReport, findings: List[Finding]) -> None:
        findings.sort(key=Finding.sort_key)
        if self.baseline is not None:
            new, baselined, unused = self.baseline.partition(findings)
            report.findings = new
            report.baselined = baselined
            report.unused_baseline = unused
            report.stale_baseline = self.baseline.stale_paths()
        else:
            report.findings = findings


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
