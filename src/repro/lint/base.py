"""Rule protocol, file/project contexts, and the rule registry.

Rules come in two shapes. A :class:`Rule` inspects one parsed file at a
time via ``check(ctx)``. A :class:`ProjectRule` runs once per lint
invocation via ``check_project(index)`` and may correlate facts across
files (the metric rules read the names declared in ``repro/obs/names.py``;
the flow rules read module facts extracted from every file).

Every rule declares a stable ``code`` (``RL...``), a human ``name``, a
``rationale`` (which engine invariant it protects — surfaced by
``--list-rules`` and ``docs/LINTS.md``), and a path scope. Scoping is
prefix-based over repo-relative POSIX paths so that, for example, the
wall-clock rule binds simulation and detection code but not the
observability layer, whose entire job is reading wall clocks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.findings import Finding


@dataclass
class FileContext:
    """One parsed source file, as handed to per-file rules."""

    path: str  # repo-relative POSIX path
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            lines=source.splitlines(),
        )

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once and
        shared by every rule."""
        return list(ast.walk(self.tree))

    @cached_property
    def imports(self) -> "ImportMap":
        return ImportMap(self.tree)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=rule.code,
            rule=rule.name,
            message=message,
        )


class ProjectIndex:
    """Cross-file facts shared by project rules.

    Built lazily from the parsed file set: the metric-name constants
    declared in ``repro/obs/names.py`` and — for the flow rules —
    per-file :class:`repro.lint.flow.facts.ModuleFacts`. The index is
    pure AST — nothing is imported or executed.
    """

    METRIC_NAMES_SUFFIX = "repro/obs/names.py"

    def __init__(self, files: Dict[str, FileContext]) -> None:
        self.files = files
        self._facts: Dict[str, object] = {}
        self._facts_failed: Set[str] = set()
        self._metric_constants: Optional[Set[str]] = None
        self._progress_phases: Optional[Set[str]] = None
        self._rng_labels: Optional[Tuple] = None
        self._rng_labels_loaded = False

    # -- extracted module facts (flow tier) ---------------------------------

    def facts_for(self, path: str):
        """:class:`ModuleFacts` for *path*, extracted on first use.

        Returns ``None`` when the file is not in the scanned set or fact
        extraction failed — callers skip rather than guess.
        """
        if path in self._facts:
            return self._facts[path]
        if path in self._facts_failed or path not in self.files:
            return None
        from repro.lint.flow.facts import extract_module_facts

        try:
            facts = extract_module_facts(path, context=self.files[path])
        except Exception:  # repro-lint: disable=RL502  # failure is recorded; facts are optional acceleration
            self._facts_failed.add(path)
            return None
        self._facts[path] = facts
        return facts

    def all_facts(self) -> Dict[str, object]:
        """Facts for every scanned file (failed extractions omitted)."""
        out: Dict[str, object] = {}
        for path in sorted(self.files):
            facts = self.facts_for(path)
            if facts is not None:
                out[path] = facts
        return out

    def suppressions_for(self, path: str) -> Dict[int, frozenset]:
        """Inline suppression map for *path* (empty when it did not parse)."""
        ctx = self.files.get(path)
        if ctx is None:
            return {}
        from repro.lint.suppress import parse_suppressions

        return parse_suppressions(ctx.lines)

    def find_file(self, suffix: str) -> Optional[FileContext]:
        for path in sorted(self.files):
            if path.endswith(suffix):
                return self.files[path]
        return None

    def metric_constants(self) -> Optional[Set[str]]:
        """Constant names declared in ``repro.obs.names`` (AST-parsed).

        Returns ``None`` when the module is not in the scanned set and
        cannot be read from the conventional location — rules then skip
        the declared-ness check rather than guessing.
        """
        if self._metric_constants is None:
            ctx = self.find_file(self.METRIC_NAMES_SUFFIX)
            if ctx is None:
                ctx = self._read_names_module()
            if ctx is None:
                return None
            constants: Set[str] = set()
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            constants.add(target.id)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    constants.add(stmt.target.id)
            self._metric_constants = constants
        return self._metric_constants

    def progress_phases(self) -> Optional[Set[str]]:
        """Phase names in ``repro.obs.names.PROGRESS_PHASES`` (AST-parsed).

        Same contract as :meth:`metric_constants`: ``None`` when the
        declaration cannot be found, so rules skip rather than guess.
        """
        if self._progress_phases is None:
            ctx = self.find_file(self.METRIC_NAMES_SUFFIX)
            if ctx is None:
                ctx = self._read_names_module()
            if ctx is None:
                return None
            phases: Set[str] = set()
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.Assign):
                    targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    targets = [stmt.target]
                    value = stmt.value
                else:
                    continue
                if not any(target.id == "PROGRESS_PHASES" for target in targets):
                    continue
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            phases.add(element.value)
            self._progress_phases = phases
        return self._progress_phases

    def rng_labels(self) -> Optional[Tuple[Tuple[str, ...], ...]]:
        """Label tuples in ``repro.obs.names.RNG_LABELS`` (AST-parsed).

        Each entry is a tuple of literal label components (``"*"`` marks a
        declared runtime-varying component). Same contract as
        :meth:`metric_constants`: ``None`` when the declaration cannot be
        found, so RL702's declared-ness checks skip rather than guess.
        """
        if not self._rng_labels_loaded:
            self._rng_labels_loaded = True
            ctx = self.find_file(self.METRIC_NAMES_SUFFIX)
            if ctx is None:
                ctx = self._read_names_module()
            if ctx is None:
                return None
            entries = []
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.Assign):
                    targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    targets = [stmt.target]
                    value = stmt.value
                else:
                    continue
                if not any(target.id == "RNG_LABELS" for target in targets):
                    continue
                if not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    continue
                for element in value.elts:
                    if not isinstance(element, (ast.Tuple, ast.List)):
                        continue
                    labels = tuple(
                        part.value
                        for part in element.elts
                        if isinstance(part, ast.Constant)
                        and isinstance(part.value, str)
                    )
                    if labels:
                        entries.append(labels)
                self._rng_labels = tuple(entries)
        return self._rng_labels

    def rng_labels_site(self) -> Optional[Tuple[str, int]]:
        """(path, line) of the ``RNG_LABELS`` declaration, for findings."""
        ctx = self.find_file(self.METRIC_NAMES_SUFFIX)
        if ctx is None:
            ctx = self._read_names_module()
        if ctx is None:
            return None
        for stmt in ctx.tree.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                targets = [stmt.target]
            if any(target.id == "RNG_LABELS" for target in targets):
                return (ctx.path, stmt.lineno)
        return None

    def _read_names_module(self) -> Optional[FileContext]:
        import os

        for candidate in (
            os.path.join("src", *self.METRIC_NAMES_SUFFIX.split("/")),
            os.path.join(*self.METRIC_NAMES_SUFFIX.split("/")),
        ):
            if os.path.exists(candidate):
                try:
                    with open(candidate, "r", encoding="utf-8") as handle:
                        return FileContext.parse(
                            candidate.replace(os.sep, "/"), handle.read()
                        )
                except (OSError, SyntaxError):
                    return None
        return None


class Rule:
    """Base class for per-file rules."""

    code: str = "RL000"
    name: str = "unnamed"
    rationale: str = ""
    #: Path prefixes (repo-relative, POSIX) the rule binds; empty = all.
    scope: Tuple[str, ...] = ()
    #: Path prefixes excluded even when inside ``scope``.
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if any(path.startswith(prefix) for prefix in self.exclude):
            return False
        if not self.scope:
            return True
        return any(path.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> Dict[str, str]:
        return {
            "code": cls.code,
            "name": cls.name,
            "rationale": cls.rationale,
        }


class ProjectRule(Rule):
    """Base class for rules that correlate facts across files."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError


#: Every registered rule class, in code order. Populated by ``register``
#: at import time only — read-only afterwards, so fork-safe by freeze.
RULE_CLASSES: List[Type[Rule]] = []  # repro-lint: disable=RL201


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (idempotent)."""
    if rule_class not in RULE_CLASSES:
        RULE_CLASSES.append(rule_class)
        RULE_CLASSES.sort(key=lambda cls: cls.code)
    return rule_class


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    import repro.lint.rules_determinism  # noqa: F401  (registration side effect)
    import repro.lint.rules_except  # noqa: F401
    import repro.lint.rules_flow  # noqa: F401
    import repro.lint.rules_forksafety  # noqa: F401
    import repro.lint.rules_obs  # noqa: F401
    import repro.lint.rules_serve  # noqa: F401

    return [rule_class() for rule_class in RULE_CLASSES]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an ``ast.Name``/``ast.Attribute`` chain as ``a.b.c``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Local-name → canonical dotted-path resolution for one module.

    ``import datetime as _dt`` maps ``_dt`` → ``datetime``;
    ``from datetime import date`` maps ``date`` → ``datetime.date``. Used
    by rules that forbid (or require) specific callables regardless of
    the aliases a module imports them under.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Canonicalize the head of *dotted* through the import aliases."""
        head, sep, rest = dotted.partition(".")
        resolved = self.aliases.get(head, head)
        return resolved + sep + rest if sep else resolved

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        raw = dotted_name(call.func)
        return self.resolve(raw) if raw is not None else None
