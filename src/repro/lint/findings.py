"""Lint findings and their canonical ordering.

A :class:`Finding` is one rule violation at one source location. Findings
are value objects: the engine sorts them into a deterministic order
(path, line, column, code) so that the report is stable across
runs and platforms — the same property the detection engines guarantee
for staleness findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


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

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
