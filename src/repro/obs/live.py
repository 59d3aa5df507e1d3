"""Live run telemetry: progress gauges and the heartbeat thread.

Two halves, both cheap enough to leave permanently wired in:

* :func:`phase_progress` — the instrumentation side. Engines grab a
  :class:`PhaseProgress` handle for one of the phases declared in
  :data:`repro.obs.names.PROGRESS_PHASES` and report work done / work
  expected through the shared registry's ``repro_progress_done`` /
  ``repro_progress_total`` gauges. With no heartbeat running these are
  plain gauge writes — the instrumentation has no other cost.

* :class:`Heartbeat` — the sampling side. A daemon thread that, every
  ``interval`` seconds, snapshots the run's registry (via
  :meth:`~repro.obs.metrics.MetricsRegistry.flat_samples`), the progress
  gauges (adding per-phase rate and ETA computed against the previous
  snapshot), process RSS, and the currently open spans, and appends the
  snapshot to ``timeline.jsonl`` through a crash-durable
  :class:`~repro.obs.timeline.TimelineWriter`. ``stop()`` takes one final
  sample *before* the CLI writes ``metrics.prom``, so the last snapshot's
  samples equal the textfile by construction.

The process's active heartbeat (if any) is reachable via
:func:`get_heartbeat` so deeply nested code — e.g. the stream engine
noticing it resumed from a checkpoint — can drop a marker into the
timeline without threading a handle through every call.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional

from contextlib import contextmanager

from repro.obs import names
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.timeline import TIMELINE_SCHEMA, TimelineWriter
from repro.obs.trace import open_spans

#: Open spans carried per snapshot (longest-open first) — enough to see
#: what a wedged run is stuck inside without bloating every line.
MAX_OPEN_SPANS = 8


# -- progress gauges ----------------------------------------------------------


class PhaseProgress:
    """Handle for one phase's done/total gauges.

    ``done`` is monotone by construction (:meth:`add` accumulates,
    :meth:`set_done` is a high-water mark), matching the timeline's
    monotonicity guarantee; ``total`` may be declared up front or refined
    as the phase discovers its size (0 = unknown).
    """

    def __init__(self, phase: str, registry: MetricsRegistry) -> None:
        self.phase = phase
        self._done = registry.gauge(
            names.PROGRESS_DONE, names.PROGRESS_DONE_HELP, labels=("phase",)
        )
        self._total = registry.gauge(
            names.PROGRESS_TOTAL, names.PROGRESS_TOTAL_HELP, labels=("phase",)
        )
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        """Accumulate *amount* units of completed work."""
        with self._lock:
            self._done.set(
                self._done.value(phase=self.phase) + amount, phase=self.phase
            )

    def set_done(self, done: float) -> None:
        """Set completed work to *done* (never moves backwards)."""
        self._done.set_max(float(done), phase=self.phase)

    def set_total(self, total: float) -> None:
        """Declare (or refine) the expected amount of work."""
        self._total.set(float(total), phase=self.phase)

    @property
    def done(self) -> float:
        return self._done.value(phase=self.phase)

    @property
    def total(self) -> float:
        return self._total.value(phase=self.phase)


def phase_progress(
    phase: str, registry: Optional[MetricsRegistry] = None
) -> PhaseProgress:
    """A :class:`PhaseProgress` for *phase* on the active registry.

    *phase* must be declared in :data:`repro.obs.names.PROGRESS_PHASES`,
    so an undeclared phase fails loudly at the call site instead of
    silently forking the timeline.
    """
    if phase not in names.PROGRESS_PHASES:
        raise ValueError(
            f"undeclared progress phase {phase!r}; add it to "
            "repro.obs.names.PROGRESS_PHASES"
        )
    return PhaseProgress(phase, registry or get_registry())


def progress_from_registry(registry: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    """``{phase: {"done": d, "total": t}}`` for every phase with samples."""
    phases: Dict[str, Dict[str, float]] = {}
    for family in registry.families():
        if family.name == names.PROGRESS_DONE:
            slot = "done"
        elif family.name == names.PROGRESS_TOTAL:
            slot = "total"
        else:
            continue
        for key, value in family.samples.items():
            phase = key[0] if key else ""
            phases.setdefault(phase, {"done": 0.0, "total": 0.0})[slot] = float(value)
    return phases


# -- RSS sampling -------------------------------------------------------------


def read_rss_bytes() -> Optional[int]:
    """Current resident set size, or ``None`` when unmeasurable.

    Reads ``/proc/self/status`` (Linux; current RSS) and falls back to
    ``resource.getrusage`` (peak RSS — close enough for a telemetry
    curve) elsewhere.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; both are plausible curves.
        return int(peak) * (1 if peak > 1 << 32 else 1024)
    except (ImportError, OSError, ValueError):
        return None


# -- the heartbeat ------------------------------------------------------------


class Heartbeat:
    """Background sampler appending timeline snapshots on a fixed cadence.

    Takes its registry *explicitly*: :func:`~repro.obs.metrics.use_registry`
    scoping is thread-local, so the sampling thread would otherwise see
    the process default instead of the run's registry.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str,
        interval: float = 1.0,
        command: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0 (got {interval})")
        self.registry = registry
        self.path = path
        self.interval = float(interval)
        self.command = command
        self._meta_extra = dict(meta or {})
        self._writer: Optional[TimelineWriter] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._sample_lock = threading.Lock()
        self._seq = 0
        self._started_at: Optional[float] = None
        self._previous: Dict[str, Any] = {}
        self._snapshots = self.registry.counter(
            names.HEARTBEAT_SNAPSHOTS, names.HEARTBEAT_SNAPSHOTS_HELP
        )
        self._rss_gauge = self.registry.gauge(
            names.PROCESS_RSS_BYTES, names.PROCESS_RSS_BYTES_HELP
        )

    @property
    def snapshots(self) -> int:
        return self._seq

    def start(self) -> "Heartbeat":
        if self._thread is not None:
            raise RuntimeError("heartbeat already started")
        self._writer = TimelineWriter(self.path)
        self._started_at = time.monotonic()
        meta_record = {
            "kind": "meta",
            "schema": TIMELINE_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "command": self.command,
            "heartbeat_seconds": self.interval,
        }
        meta_record.update(self._meta_extra)
        self._writer.append(meta_record)
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample()

    def _phase_rows(self, elapsed: float) -> Dict[str, Dict[str, Any]]:
        rows: Dict[str, Dict[str, Any]] = {}
        for phase, progress in progress_from_registry(self.registry).items():
            done = progress["done"]
            total = progress["total"]
            rate: Optional[float] = None
            eta: Optional[float] = None
            previous = self._previous.get(phase)
            if previous is not None:
                prev_elapsed, prev_done = previous
                window = elapsed - prev_elapsed
                if window > 0:
                    rate = (done - prev_done) / window
            if rate and rate > 0 and total > done:
                eta = (total - done) / rate
            self._previous[phase] = (elapsed, done)
            rows[phase] = {
                "done": done,
                "total": total,
                "rate": round(rate, 3) if rate is not None else None,
                "eta_seconds": round(eta, 1) if eta is not None else None,
            }
        return rows

    def sample(self, final: bool = False) -> Optional[Dict[str, Any]]:
        """Append one snapshot; returns the record (``None`` if stopped).

        Bumps the snapshot counter and RSS gauge *before* flattening the
        registry, so the snapshot describes the registry state that the
        end-of-run ``metrics.prom`` will also contain.
        """
        with self._sample_lock:
            writer = self._writer
            if writer is None or self._started_at is None:
                return None
            elapsed = time.monotonic() - self._started_at
            self._seq += 1
            self._snapshots.inc()
            rss = read_rss_bytes()
            if rss is not None:
                self._rss_gauge.set_max(float(rss))
            record: Dict[str, Any] = {
                "kind": "snapshot",
                "seq": self._seq,
                "ts": time.time(),
                "elapsed": round(elapsed, 3),
                "rss_bytes": rss,
                "phases": self._phase_rows(elapsed),
                "samples": self.registry.flat_samples(),
                "open_spans": [
                    {
                        "name": span["name"],
                        "seconds": round(span["seconds"], 3),
                        "depth": span["depth"],
                        "parent": span["parent"],
                    }
                    for span in open_spans()[:MAX_OPEN_SPANS]
                ],
            }
            if final:
                record["final"] = True
            writer.append(record)
            return record

    def mark(self, **fields: Any) -> None:
        """Append a one-off ``marker`` record (e.g. ``resumed_from=...``)."""
        with self._sample_lock:
            if self._writer is None or self._started_at is None:
                return
            record = {
                "kind": "marker",
                "ts": time.time(),
                "elapsed": round(time.monotonic() - self._started_at, 3),
            }
            record.update(fields)
            self._writer.append(record)

    def stop(self) -> None:
        """Stop sampling, take the final snapshot, and close the timeline."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=max(5.0, self.interval * 3))
        self._thread = None
        self.sample(final=True)
        with self._sample_lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- active-heartbeat registry ------------------------------------------------

# One heartbeat per process at a time (one CLI invocation = one run).
# Process-global on purpose: the stream engine's resume path reaches it
# through get_heartbeat() without a handle threaded through every layer.
_ACTIVE_HEARTBEAT: List[Optional[Heartbeat]] = [None]
_ACTIVE_LOCK = threading.Lock()


def get_heartbeat() -> Optional[Heartbeat]:
    """The process's active heartbeat, or ``None`` when telemetry is off."""
    with _ACTIVE_LOCK:
        return _ACTIVE_HEARTBEAT[0]


def set_heartbeat(heartbeat: Optional[Heartbeat]) -> Optional[Heartbeat]:
    """Install (or, with ``None``, clear) the active heartbeat; returns
    the previous one."""
    with _ACTIVE_LOCK:
        previous = _ACTIVE_HEARTBEAT[0]
        _ACTIVE_HEARTBEAT[0] = heartbeat
        return previous


@contextmanager
def use_heartbeat(heartbeat: Heartbeat) -> Iterator[Heartbeat]:
    """Start *heartbeat*, expose it via :func:`get_heartbeat`, and stop it
    (final snapshot included) on exit."""
    previous = set_heartbeat(heartbeat)
    heartbeat.start()
    try:
        yield heartbeat
    finally:
        heartbeat.stop()
        set_heartbeat(previous)
