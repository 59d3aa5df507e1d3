"""Hosting and self-query harnesses for the staleness query service.

Three entry points, in decreasing order of ceremony:

* :func:`run_server` — bind the app to a ``wsgiref`` reference server
  and serve until interrupted. Dependency-light by design; production
  deployments can mount :class:`~repro.serve.app.StalenessApp` under any
  WSGI host instead.
* :func:`call_app` — drive the WSGI callable with a synthetic environ
  and no socket. This is how tier-1 tests and the benchmark exercise the
  HTTP layer.
* :func:`warm_check` — the ``--warm-check`` self-query mode: hit every
  endpoint family once through :func:`call_app` and report per-route
  status. CI smoke jobs use it to prove the service answers without
  keeping a long-lived process around.
"""

from __future__ import annotations

import json
from io import BytesIO
from typing import Dict, List, Tuple
from urllib.parse import quote
from wsgiref.simple_server import WSGIRequestHandler, make_server

from repro.obs import log
from repro.serve.app import StalenessApp


class _QuietHandler(WSGIRequestHandler):
    """Route wsgiref's per-request stderr lines through structured logs."""

    def log_message(self, format: str, *args) -> None:
        log("serve_access", subsystem="serve", line=format % args)


class ClientResponse:
    """What a socket-free request returns: status, headers, parsed body."""

    def __init__(self, status_line: str, headers: List[Tuple[str, str]],
                 body: bytes) -> None:
        self.status_line = status_line
        self.status = int(status_line.split(" ", 1)[0])
        self.headers = dict(headers)
        self.body = body

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))


def call_app(
    app: StalenessApp,
    path: str,
    query: str = "",
    method: str = "GET",
) -> ClientResponse:
    """Invoke the WSGI app directly — no server, no socket, no thread."""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "SERVER_NAME": "warm-check",
        "SERVER_PORT": "0",
        "SERVER_PROTOCOL": "HTTP/1.1",
        "wsgi.version": (1, 0),
        "wsgi.url_scheme": "http",
        "wsgi.input": BytesIO(b""),
        "wsgi.errors": BytesIO(),
        "wsgi.multithread": False,
        "wsgi.multiprocess": False,
        "wsgi.run_once": True,
    }
    captured: Dict[str, object] = {}

    def start_response(status_line, headers, exc_info=None):
        captured["status_line"] = status_line
        captured["headers"] = headers

    chunks = app(environ, start_response)
    return ClientResponse(
        captured["status_line"], captured["headers"], b"".join(chunks)
    )


def warm_check(app: StalenessApp) -> dict:
    """Self-query every endpoint family once; return a machine-readable report.

    A probe "passes" when it gets the status the route contract promises —
    including the deliberate 404/400/405 probes, which prove the error
    model answers in JSON rather than a traceback.
    """
    domains = app.index.domains()
    probe_domain = domains[0] if domains else "nonexistent.example"
    probes: List[Tuple[str, str, str, int]] = [
        ("/health", "", "GET", 200),
        (f"/v1/domains/{quote(probe_domain)}", "", "GET", 200 if domains else 404),
        ("/v1/aggregates", "by=class", "GET", 200),
        ("/v1/aggregates", "by=issuer", "GET", 200),
        ("/v1/aggregates", "by=year", "GET", 200),
        ("/v1/survival", "", "GET", 200),
        ("/v1/whatif/caps", "days=45,90,215", "GET", 200),
        ("/v1/whatif/caps", "days=47", "GET", 200),
        ("/v1/domains/zzz-no-such-domain.example", "", "GET", 404),
        ("/v1/aggregates", "by=volume", "GET", 400),
        ("/v1/whatif/caps", "days=0", "GET", 400),
        ("/health", "", "POST", 405),
        ("/metrics", "", "GET", 200),
    ]
    checks: List[dict] = []
    failures = 0
    for path, query, method, expected in probes:
        response = call_app(app, path, query=query, method=method)
        if path == "/metrics":
            # Text exposition, not JSON: passing means 200 with the
            # Prometheus content type and at least one sample line.
            ok = (
                response.status == expected
                and response.headers.get("Content-Type", "").startswith("text/plain")
                and b"repro_" in response.body
            )
        else:
            payload = response.json()
            ok = response.status == expected and isinstance(payload, dict)
            if response.status >= 400:
                ok = ok and set(payload) == {"error"}
        if not ok:
            failures += 1
        checks.append(
            {
                "method": method,
                "path": path,
                "query": query,
                "expected_status": expected,
                "status": response.status,
                "ok": ok,
            }
        )
    return {
        "ok": failures == 0,
        "probes": len(checks),
        "failures": failures,
        "index": app.index.stats(),
        "checks": checks,
    }


def run_server(
    app: StalenessApp,
    host: str = "127.0.0.1",
    port: int = 8323,
) -> None:
    """Serve *app* on the stdlib reference server until interrupted
    (Ctrl-C returns cleanly)."""
    with make_server(host, port, app, handler_class=_QuietHandler) as httpd:
        log(
            "serve_listening",
            subsystem="serve",
            host=host,
            port=httpd.server_port,
            findings=len(app.index),
        )
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            log("serve_stopped", subsystem="serve", reason="interrupt")
