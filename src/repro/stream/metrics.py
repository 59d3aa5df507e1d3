"""Stream metrics: per-event-type counters, detector latency, queue depth.

A long-running monitor needs the operational numbers the batch pipeline
never had to report: how many events of each type flowed, how long handler
dispatch takes, how deep the bus queue gets, and how many findings each
staleness class has produced. :class:`StreamStats` accumulates them. A
checkpoint does not store them: a resumed run replays the prefix silently,
so its counts are an uninterrupted run's by construction.

:meth:`StreamStats.bind_registry` bridges the stats onto a shared
:class:`~repro.obs.MetricsRegistry` so watch-mode counters and batch
counters share one namespace (the findings counter a shard worker
increments is the same series the stream engine increments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.util.dates import Day, day_to_iso


@dataclass
class StreamStats:
    """Counters for one streaming replay (a resumed run counts the replayed
    prefix too, so they match an uninterrupted run's)."""

    events_by_type: Dict[str, int] = field(default_factory=dict)
    findings_by_class: Dict[str, int] = field(default_factory=dict)
    handler_seconds_by_type: Dict[str, float] = field(default_factory=dict)
    days_processed: int = 0
    first_event_day: Optional[Day] = None
    last_event_day: Optional[Day] = None
    max_queue_depth: int = 0
    checkpoints_written: int = 0
    resumed_from_day: Optional[Day] = None

    # The obs bridge (never part of :meth:`to_record`).
    _registry = None

    # -- obs bridge ----------------------------------------------------------

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Mirror these stats onto *registry* (pass ``None`` to unbind);
        records from now on mirror incrementally, handler latencies into a
        histogram."""
        self._registry = registry
        if registry is None:
            self._c_events = self._c_findings = self._c_days = None
            self._c_checkpoints = self._g_queue = self._h_handler = None
            return
        self._c_events = registry.counter(
            names.STREAM_EVENTS, names.STREAM_EVENTS_HELP, labels=("type",)
        )
        self._c_findings = registry.counter(
            names.FINDINGS_TOTAL, names.FINDINGS_TOTAL_HELP,
            labels=("staleness_class",),
        )
        self._c_days = registry.counter(names.STREAM_DAYS, names.STREAM_DAYS_HELP)
        self._c_checkpoints = registry.counter(
            names.STREAM_CHECKPOINTS, names.STREAM_CHECKPOINTS_HELP
        )
        self._g_queue = registry.gauge(
            names.STREAM_MAX_QUEUE_DEPTH, names.STREAM_MAX_QUEUE_DEPTH_HELP
        )
        self._h_handler = registry.histogram(
            names.STREAM_HANDLER_SECONDS, names.STREAM_HANDLER_SECONDS_HELP,
            labels=("type",),
        )

    # -- recording ----------------------------------------------------------

    def record_event(self, type_value: str, elapsed_seconds: float) -> None:
        self.events_by_type[type_value] = self.events_by_type.get(type_value, 0) + 1
        self.handler_seconds_by_type[type_value] = (
            self.handler_seconds_by_type.get(type_value, 0.0) + elapsed_seconds
        )
        if self._registry is not None:
            self._c_events.inc(1, type=type_value)
            self._h_handler.observe(elapsed_seconds, type=type_value)

    def record_finding(self, class_value: str) -> None:
        self.findings_by_class[class_value] = (
            self.findings_by_class.get(class_value, 0) + 1
        )
        if self._registry is not None:
            self._c_findings.inc(1, staleness_class=class_value)

    def record_day(self, event_day: Day) -> None:
        self.days_processed += 1
        if self.first_event_day is None or event_day < self.first_event_day:
            self.first_event_day = event_day
        if self.last_event_day is None or event_day > self.last_event_day:
            self.last_event_day = event_day
        if self._registry is not None:
            self._c_days.inc(1)

    def record_checkpoint(self) -> None:
        self.checkpoints_written += 1
        if self._registry is not None:
            self._c_checkpoints.inc(1)

    def observe_queue_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
            if self._registry is not None:
                self._g_queue.set_max(depth)

    # -- views --------------------------------------------------------------

    @property
    def events_total(self) -> int:
        return sum(self.events_by_type.values())

    @property
    def findings_total(self) -> int:
        return sum(self.findings_by_class.values())

    def mean_latency_ms(self, type_value: str) -> float:
        count = self.events_by_type.get(type_value, 0)
        if not count:
            return 0.0
        return 1000.0 * self.handler_seconds_by_type.get(type_value, 0.0) / count

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(quantity, value) rows for the report layer."""
        rows: List[Tuple[str, object]] = [
            ("days processed", self.days_processed),
            ("events total", self.events_total),
        ]
        for type_value in sorted(self.events_by_type):
            rows.append(
                (
                    f"events: {type_value}",
                    f"{self.events_by_type[type_value]:,} "
                    f"({self.mean_latency_ms(type_value):.3f} ms/event)",
                )
            )
        for class_value in sorted(self.findings_by_class):
            rows.append((f"findings: {class_value}", self.findings_by_class[class_value]))
        rows.append(("max queue depth", self.max_queue_depth))
        rows.append(("checkpoints written", self.checkpoints_written))
        if self.resumed_from_day is not None:
            rows.append(("resumed from", day_to_iso(self.resumed_from_day)))
        if self.first_event_day is not None and self.last_event_day is not None:
            rows.append(
                (
                    "event-day range",
                    f"{day_to_iso(self.first_event_day)} - "
                    f"{day_to_iso(self.last_event_day)}",
                )
            )
        return rows

    # -- export (``watch --format json``) ------------------------------------

    def to_record(self) -> dict:
        return {
            "events_by_type": dict(self.events_by_type),
            "findings_by_class": dict(self.findings_by_class),
            "handler_seconds_by_type": dict(self.handler_seconds_by_type),
            "days_processed": self.days_processed,
            "first_event_day": self.first_event_day,
            "last_event_day": self.last_event_day,
            "max_queue_depth": self.max_queue_depth,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from_day": self.resumed_from_day,
        }
