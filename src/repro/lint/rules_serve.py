"""Serve-path error contract: RL503 handlers must answer in the error model.

The query service promises that every failure — expected or not —
reaches the client as the JSON error model and never as a traceback or,
worse, a silently wrong 200. An ``except`` clause inside the serve
subsystem that neither re-raises (``raise ApiError(...)`` routes into
the model) nor builds a :func:`repro.serve.app.json_error` response has
swallowed a failure the client will never see.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import FileContext, Rule, dotted_name, register
from repro.lint.findings import Finding

#: The one sanctioned error-model constructor in the serve subsystem.
ERROR_MODEL_FUNC = "json_error"


def _handler_answers(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or builds a JSON error response."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.split(".")[-1] == ERROR_MODEL_FUNC:
                return True
    return False


@register
class ServeErrorModelRule(Rule):
    """RL503: serve except clauses must surface failures to the client."""

    code = "RL503"
    name = "serve-swallowed-error"
    rationale = (
        "A serve-path handler that catches an exception without "
        "re-raising or returning json_error(...) hides the failure from "
        "the HTTP client: the response is a 200 built from partial state "
        "or no response at all, violating the API's one-error-model "
        "contract (404/400/405/500, never a traceback, never silence)."
    )
    scope = ("src/repro/serve/",)
    #: The host loop may legitimately catch KeyboardInterrupt to stop
    #: serving — there is no client left to answer at that point.
    exclude = ("src/repro/serve/server.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.ExceptHandler) and not _handler_answers(node):
                yield ctx.finding(
                    self,
                    node,
                    "serve handler swallows the exception instead of "
                    "answering with the JSON error model; raise ApiError "
                    "(or re-raise) or return json_error(...)",
                )
