"""Determinism rules: RL101 wall clock, RL102 global random, RL103 set order.

These protect the reproduction's headline claim — batch, stream, and
parallel runs are finding-for-finding identical given a seed.
Wall-clock reads make a simulated 2013–2023 timeline depend on the day
the code runs; the process-global ``random`` module entangles every
subsystem's draws through shared hidden state (the repo's
:mod:`repro.util.rng` label-forked streams exist precisely to prevent
that); and bare ``set`` iteration order is salted per process, so any
merge or ordering path that walks a set unsorted, or copies it into a
list, tuple or joined string, can reorder findings between two identical
runs.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.base import FileContext, Rule, register
from repro.lint.findings import Finding, Fix

SIMULATION_SCOPE = ("src/repro/",)
#: The observability layer's whole job is reading wall clocks and process
#: state; determinism rules bind everything else under ``src/repro/``.
OBS_EXCLUDE = ("src/repro/obs/",)


@register
class WallClockRule(Rule):
    """RL101: no wall-clock reads in simulation or detection paths."""

    code = "RL101"
    name = "wall-clock-read"
    rationale = (
        "Simulation and detection paths must derive every timestamp from "
        "the simulated timeline (repro.util.dates Day ordinals); a "
        "datetime.now()/time.time() read makes results depend on when the "
        "run happens, breaking seeded reproducibility."
    )
    scope = SIMULATION_SCOPE
    exclude = OBS_EXCLUDE

    FORBIDDEN: Set[str] = {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node)
            if resolved in self.FORBIDDEN:
                yield ctx.finding(
                    self,
                    node,
                    f"wall-clock read {resolved}() in a simulation/detection "
                    "path; derive time from the simulated timeline "
                    "(repro.util.dates) instead",
                )


@register
class GlobalRandomRule(Rule):
    """RL102: no process-global ``random`` state; fork RngStream instead."""

    code = "RL102"
    name = "global-random"
    rationale = (
        "Module-level random.* draws share one hidden global stream, so a "
        "new draw anywhere perturbs every later draw everywhere; all "
        "randomness must come from repro.util.rng label-forked RngStream "
        "instances (explicitly seeded random.Random is the one allowed "
        "primitive, used by RngStream itself)."
    )
    scope = SIMULATION_SCOPE

    ALLOWED = {"random.Random"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name not in ("Random",)
                )
                if bad:
                    yield ctx.finding(
                        self,
                        node,
                        "importing module-level random state "
                        f"({', '.join(bad)}) from 'random'; draw from a "
                        "repro.util.rng RngStream fork instead",
                    )
            elif isinstance(node, ast.Call):
                resolved = imports.resolve_call(node)
                if (
                    resolved is not None
                    and resolved.startswith("random.")
                    and resolved not in self.ALLOWED
                    and resolved.count(".") == 1
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"{resolved}() draws from the process-global RNG; "
                        "use a repro.util.rng RngStream fork so draws in "
                        "one subsystem never perturb another",
                    )


def _is_set_producing(node: ast.AST) -> bool:
    """True for expressions that statically evaluate to a set.

    Deliberately conservative — direct set displays, comprehensions,
    ``set()``/``frozenset()`` calls, set-method calls on those, and set
    algebra over them. Variables of set type are not inferred; RL103 trades
    recall for a near-zero false-positive rate.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_producing(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_producing(node.left) or _is_set_producing(node.right)
    return False


#: Builtins that copy their argument's iteration order into a sequence.
_SEQUENCE_BUILDERS = ("list", "tuple")


def _converted_iterable(node: ast.AST):
    """The argument of ``list(x)``/``tuple(x)``/``sep.join(x)``, else None."""
    if not (isinstance(node, ast.Call) and len(node.args) == 1
            and not node.keywords):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in _SEQUENCE_BUILDERS:
        return node.args[0]
    if isinstance(func, ast.Attribute) and func.attr == "join":
        return node.args[0]
    return None


@register
class UnsortedSetIterationRule(Rule):
    """RL103: iterating or sequencing a bare set without ``sorted(...)``."""

    code = "RL103"
    name = "unsorted-set-iteration"
    rationale = (
        "Set iteration order is hash-salted per process; a merge or "
        "ordering path that walks a set unsorted — or turns it into a "
        "list, tuple or joined string — can emit findings or rows in a "
        "different order on every run and between shard workers, breaking "
        "the batch == stream == parallel equivalence. Wrap the set "
        "in sorted(...)."
    )
    scope = SIMULATION_SCOPE
    fixable = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            else:
                converted = _converted_iterable(node)
                iters = [converted] if converted is not None else []
            for iter_expr in iters:
                if _is_set_producing(iter_expr):
                    fix = None
                    if (
                        getattr(iter_expr, "end_lineno", None) is not None
                        and getattr(iter_expr, "end_col_offset", None) is not None
                    ):
                        fix = Fix(
                            kind="wrap_sorted",
                            start=(iter_expr.lineno, iter_expr.col_offset + 1),
                            end=(iter_expr.end_lineno, iter_expr.end_col_offset + 1),
                        )
                    yield ctx.finding(
                        self,
                        iter_expr,
                        "iterating a bare set follows its hash-salted, "
                        "per-process order; wrap the set in sorted(...)",
                        fix=fix,
                    )
