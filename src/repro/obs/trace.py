"""Lightweight span tracing: wall time + nesting, no external deps.

``with span("crl_fetch_day", day=d):`` times a block, records the elapsed
wall time into the shared registry's ``repro_span_seconds`` histogram
(labelled by span name only — attributes stay out of metric labels so
high-cardinality values like days never explode a time series), and emits
a DEBUG-level structured log record carrying the attributes, duration,
nesting depth, parent span name, and exit status.

Spans are failure-aware: a block that raises is recorded with
``status="error"`` (on the log record and the trace event) and bumps the
``repro_span_exceptions_total`` counter by span name — the exception
itself always propagates untouched.

When a :class:`~repro.obs.traceout.TraceCollector` is active (see
:func:`~repro.obs.traceout.use_collector`), every span additionally
records a begin and an end trace event, exportable as a Chrome trace.
With no collector active, the trace path costs a single ``None`` check.

Spans nest per thread. :func:`open_spans` snapshots every *currently open*
span across all threads — the heartbeat samples it so a live timeline
shows what a wedged run is stuck inside.
"""

from __future__ import annotations

import logging
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import names
from repro.obs.log import log
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.traceout import get_collector

_STACK = threading.local()

# Cross-thread view of every thread's open-span stack, keyed by thread
# ident, so the heartbeat can report what other threads are inside. The
# stacks themselves are only mutated by their owning thread; the dict is
# guarded for registration/iteration. Deliberately process-global (like
# the executor fork channel): written per-thread, read-only elsewhere.
_OPEN_STACKS: Dict[int, List["Span"]] = {}
_OPEN_LOCK = threading.Lock()


@dataclass
class Span:
    """One traced block; ``seconds`` and ``status`` are filled on exit."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    depth: int = 0
    parent: Optional[str] = None
    seconds: Optional[float] = None
    status: str = "ok"
    #: ``perf_counter()`` at entry; lets :func:`open_spans` report how
    #: long a still-open span has been running.
    started: Optional[float] = None


def _spans() -> List[Span]:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = []
        _STACK.spans = stack
        with _OPEN_LOCK:
            _OPEN_STACKS[threading.get_ident()] = stack
    return stack


def open_spans() -> List[Dict[str, Any]]:
    """Snapshot every currently open span, across all threads.

    Returns dicts with ``name``, ``seconds`` (open so far), ``depth``,
    ``parent``, and ``thread``, longest-open first. The read is lock-free
    against the owning threads (list copies under the GIL), so a racing
    push/pop at worst misses or double-counts one frame — fine for a
    telemetry sample.
    """
    now = perf_counter()
    with _OPEN_LOCK:
        stacks = [
            (ident, list(stack)) for ident, stack in _OPEN_STACKS.items() if stack
        ]
    snapshot: List[Dict[str, Any]] = []
    for ident, stack in stacks:
        for span_obj in stack:
            if span_obj.started is None:
                continue
            snapshot.append(
                {
                    "name": span_obj.name,
                    "seconds": now - span_obj.started,
                    "depth": span_obj.depth,
                    "parent": span_obj.parent,
                    "thread": ident,
                }
            )
    snapshot.sort(key=lambda record: (-record["seconds"], record["name"]))
    return snapshot


@contextmanager
def span(
    name: str,
    registry: Optional[MetricsRegistry] = None,
    **attrs: Any,
) -> Iterator[Span]:
    """Time a block; record a histogram sample, trace events, and a log."""
    stack = _spans()
    current = Span(
        name=name,
        attrs=dict(attrs),
        depth=len(stack),
        parent=stack[-1].name if stack else None,
    )
    stack.append(current)
    # Captured once so begin/end land in the same collector even if the
    # active scope changes inside the block.
    collector = get_collector()
    if collector is not None:
        collector.record_begin(name, current.attrs or None)
    started = perf_counter()
    current.started = started
    try:
        yield current
    except BaseException:
        current.status = "error"
        raise
    finally:
        current.seconds = perf_counter() - started
        stack.pop()
        if collector is not None:
            collector.record_end(name, status=current.status)
        active_registry = registry or get_registry()
        active_registry.histogram(
            names.SPAN_SECONDS, names.SPAN_SECONDS_HELP, labels=("name",)
        ).observe(current.seconds, name=name)
        if current.status == "error":
            active_registry.counter(
                names.SPAN_EXCEPTIONS, names.SPAN_EXCEPTIONS_HELP, labels=("name",)
            ).inc(name=name)
        log(
            "span",
            level=logging.DEBUG,
            name=name,
            seconds=round(current.seconds, 6),
            depth=current.depth,
            parent=current.parent,
            status=current.status,
            **current.attrs,
        )
