"""Fork-safety rule: RL201 mutable module-level state in worker-reachable code.

The parallel engine forks (or spawns) worker processes that import
the same modules as the parent. Module-level state that is *mutated* at
runtime silently diverges per process: the parent never sees a worker's
writes, and two workers never see each other's. A constant lookup table
defined once and only read is fine; a module-level cache, accumulator, or
registry that code writes into is a latent correctness bug the moment it
is reached from a worker process or a ``DETECTOR_REGISTRY`` detector.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.lint.base import FileContext, Rule, register
from repro.lint.findings import Finding

#: Methods that mutate the common container types in place.
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
    "add", "discard", "update", "setdefault", "popitem",
    "appendleft", "extendleft", "popleft",
}


def _module_level_names(tree: ast.Module) -> Dict[str, ast.stmt]:
    """Simple ``NAME = ...`` statements at module level, minus dunders."""
    names: Dict[str, ast.stmt] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and not (
                target.id.startswith("__") and target.id.endswith("__")
            ):
                names.setdefault(target.id, stmt)
    return names


class _MutationFinder(ast.NodeVisitor):
    """Collects module-level names mutated from nested scopes."""

    def __init__(self, candidates: Set[str]) -> None:
        self.candidates = candidates
        self.mutated: Dict[str, int] = {}  # name -> first mutation lineno
        self._depth = 0  # >0 inside a function/method body

    def _record(self, name: str, lineno: int) -> None:
        if name in self.candidates and name not in self.mutated:
            self.mutated[name] = lineno

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def _target_name(self, node: ast.expr):
        # NAME[...] = / NAME.attr = — the root name is what mutates.
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth:
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = self._target_name(target)
                    if name is not None:
                        self._record(name, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._depth:
            name = self._target_name(node.target)
            if name is not None:
                self._record(name, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self._depth:
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = self._target_name(target)
                    if name is not None:
                        self._record(name, node.lineno)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        if self._depth:
            for name in node.names:
                self._record(name, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self._depth
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            self._record(node.func.value.id, node.lineno)
        self.generic_visit(node)


@register
class MutableModuleStateRule(Rule):
    """RL201: module-level state mutated at runtime in worker-reachable code."""

    code = "RL201"
    name = "mutable-module-state"
    rationale = (
        "Shard workers import the same modules as the parent process; "
        "module-level state that functions mutate diverges silently per "
        "process (the parent never observes worker writes), so any cache "
        "or accumulator reachable from repro.parallel workers or "
        "DETECTOR_REGISTRY detectors must live on an instance that is "
        "explicitly constructed, passed, and merged."
    )
    scope = ("src/repro/",)
    #: The obs layer's process-wide registry/collector indirection is its
    #: documented design (shard snapshots are merged explicitly); the CLI
    #: runs only in the parent process.
    exclude = ("src/repro/obs/", "src/repro/cli.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        candidates = _module_level_names(ctx.tree)
        if not candidates:
            return
        finder = _MutationFinder(set(candidates))
        finder.visit(ctx.tree)
        for name in sorted(finder.mutated):
            stmt = candidates[name]
            yield ctx.finding(
                self,
                stmt,
                f"module-level '{name}' is mutated at runtime (first write "
                f"at line {finder.mutated[name]}); in forked shard workers "
                "this state diverges silently per process — hold it on an "
                "explicitly passed instance instead",
            )
