"""Lint findings and their canonical ordering.

A :class:`Finding` is one rule violation at one source location. Findings
are value objects: the engine sorts them into a deterministic order
(path, line, column, code) so that text and JSON output are stable across
runs and platforms — the same property the detection engines guarantee
for staleness findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_record(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
