"""Lint findings and their canonical ordering.

A :class:`Finding` is one rule violation at one source location. Findings
are value objects: the engine sorts them into a deterministic order
(path, line, column, code) so that text output, JSON output, and baseline
files are stable across runs and platforms — the same property the
detection engines guarantee for staleness findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class Fix:
    """A mechanical edit that resolves a finding.

    ``kind`` selects the strategy in :mod:`repro.lint.fixes`;
    ``start``/``end`` are 1-based (line, column) positions delimiting the
    expression the fix rewrites (``end`` is exclusive in columns, matching
    ``ast`` end offsets).
    """

    kind: str
    start: Tuple[int, int]
    end: Tuple[int, int]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str
    #: The stripped source line, used for baseline matching (line numbers
    #: drift as files are edited; the offending text usually does not).
    line_text: str = ""
    fix: Optional[Fix] = field(default=None, compare=False)

    @property
    def fixable(self) -> bool:
        return self.fix is not None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def baseline_key(self) -> Tuple[str, str, str]:
        """Identity used to match this finding against a baseline entry."""
        return (self.path, self.code, self.line_text)

    def to_record(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
            "fixable": self.fixable,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
