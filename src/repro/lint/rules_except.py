"""Error hygiene: RL501 bare except, RL502 swallowed broad except.

A CRL series with one malformed delta, a WHOIS record with a bizarre
date, a checkpoint truncated by a crash — measurement code meets garbage
constantly, and a handler that silently swallows it turns a data-quality
incident into a finding count that is quietly wrong. Handlers must be
typed, and broad handlers must either re-raise or leave a structured
record behind.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import FileContext, Rule, dotted_name, register
from repro.lint.findings import Finding

BROAD_NAMES = ("Exception", "BaseException")

#: Call shapes accepted as "leaves a record behind": the repro.obs.log
#: bridge, stdlib logging methods on any logger object, warnings, and
#: stderr prints.
LOG_FUNC_NAMES = {"log", "print", "warn"}
LOG_METHOD_NAMES = {
    "log", "debug", "info", "warning", "warn", "error", "exception", "critical",
}


def _is_broad(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Tuple):
        return any(_is_broad(element) for element in annotation.elts)
    name = dotted_name(annotation)
    return name is not None and name.split(".")[-1] in BROAD_NAMES


def _handler_reports(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in LOG_FUNC_NAMES:
                return True
            if isinstance(func, ast.Attribute) and func.attr in LOG_METHOD_NAMES:
                return True
    return False


@register
class BareExceptRule(Rule):
    """RL501: no bare ``except:`` clauses."""

    code = "RL501"
    name = "bare-except"
    rationale = (
        "A bare except: catches KeyboardInterrupt and SystemExit, so a "
        "stuck collection run cannot even be Ctrl-C'd cleanly; every "
        "handler must name what it expects (at minimum Exception)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self,
                    node,
                    "bare 'except:' also catches KeyboardInterrupt/"
                    "SystemExit; name the exception (at minimum Exception)",
                )


@register
class SwallowedExceptionRule(Rule):
    """RL502: broad handlers must re-raise or leave a structured record."""

    code = "RL502"
    name = "swallowed-exception"
    rationale = (
        "except Exception that neither re-raises nor logs converts a "
        "data-quality incident (corrupt CRL delta, malformed WHOIS date) "
        "into silently wrong finding counts; broad handlers must raise, "
        "or record the failure via repro.obs.log / logging / stderr."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if (
                isinstance(node, ast.ExceptHandler)
                and node.type is not None
                and _is_broad(node.type)
                and not _handler_reports(node)
            ):
                yield ctx.finding(
                    self,
                    node,
                    "broad exception handler neither re-raises nor logs; "
                    "swallowing here turns data-quality incidents into "
                    "silently wrong results",
                )
