"""Process-wide metrics: counters, gauges, and fixed-bucket histograms.

The paper's pipelines are long-running collection operations (six months of
daily CRL fetches, decade-scale CT replay); a deployment needs their health
quantified continuously, not discovered when a test fails. This module is
the storage half of that: a :class:`MetricsRegistry` holding named metric
families, a Prometheus-style text exposition (:meth:`MetricsRegistry.render_text`
/ :meth:`~MetricsRegistry.write_textfile`), and a deterministic
:meth:`~MetricsRegistry.merge` so per-task snapshots from the parallel
engine sum into the parent's registry.

Merge semantics are chosen to be commutative and associative — counters and
histograms add, gauges take the maximum — so merging task snapshots in any
order produces identical totals (the parallel engine's determinism bar).

A process-wide default registry is reachable via :func:`get_registry`;
:func:`use_registry` scopes a replacement per thread (detector tasks and the
CLI use it so concurrent runs never interleave their counters).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram buckets (seconds) — wide enough for both per-event
#: handler latencies (sub-millisecond) and whole-detector passes (seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0
)

LabelValues = Tuple[str, ...]


class HistogramData:
    """Bucket counts, sum, and count for one labelled histogram series."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        # One slot per finite upper bound plus the implicit +Inf bucket.
        self.bucket_counts: List[int] = [0] * (num_buckets + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, buckets: Sequence[float]) -> None:
        # Prometheus buckets are cumulative-by-convention only at render
        # time; internally each slot counts its own range, upper bound
        # inclusive (bisect_left: value == bound lands in that bucket).
        self.bucket_counts[bisect_left(buckets, value)] += 1
        self.sum += value
        self.count += 1

    def to_record(self) -> Dict[str, object]:
        return {
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "HistogramData":
        counts = list(record["bucket_counts"])  # type: ignore[arg-type]
        data = cls(len(counts) - 1)
        data.bucket_counts = [int(c) for c in counts]
        data.sum = float(record["sum"])  # type: ignore[arg-type]
        data.count = int(record["count"])  # type: ignore[arg-type]
        return data


class MetricFamily:
    """One named metric with fixed label names and one sample per labelset."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self.samples: Dict[LabelValues, Union[float, HistogramData]] = {}

    def label_values(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class _Handle:
    """Base for the per-family handles the instrumented code holds."""

    def __init__(self, registry: "MetricsRegistry", family: MetricFamily) -> None:
        self._registry = registry
        self._family = family

    @property
    def name(self) -> str:
        return self._family.name


class Counter(_Handle):
    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        key = self._family.label_values(labels)
        with self._registry._lock:
            self._family.samples[key] = self._family.samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return float(self._family.samples.get(self._family.label_values(labels), 0.0))


class Gauge(_Handle):
    def set(self, value: float, **labels: str) -> None:
        key = self._family.label_values(labels)
        with self._registry._lock:
            self._family.samples[key] = float(value)

    def set_max(self, value: float, **labels: str) -> None:
        """Keep the larger of the current and new value (high-water mark)."""
        key = self._family.label_values(labels)
        with self._registry._lock:
            current = self._family.samples.get(key)
            if current is None or value > current:
                self._family.samples[key] = float(value)

    def value(self, **labels: str) -> float:
        return float(self._family.samples.get(self._family.label_values(labels), 0.0))


class Histogram(_Handle):
    def observe(self, value: float, **labels: str) -> None:
        key = self._family.label_values(labels)
        with self._registry._lock:
            data = self._family.samples.get(key)
            if data is None:
                data = HistogramData(len(self._family.buckets))
                self._family.samples[key] = data
            data.observe(value, self._family.buckets)

    def data(self, **labels: str) -> Optional[HistogramData]:
        return self._family.samples.get(self._family.label_values(labels))


_HANDLE_TYPES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class MetricsRegistry:
    """A set of metric families with snapshot, merge, and text exposition."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    # -- registration --------------------------------------------------------

    def counter(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._handle(name, COUNTER, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._handle(name, GAUGE, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._handle(name, HISTOGRAM, help_text, labels, tuple(buckets))

    def _handle(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        if buckets is not None and (
            not buckets or list(buckets) != sorted(set(buckets))
        ):
            raise ValueError(f"{name}: buckets must be sorted, distinct, non-empty")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help_text, tuple(labels), buckets)
                self._families[name] = family
            else:
                if family.kind != kind:
                    raise ValueError(
                        f"{name} already registered as {family.kind}, not {kind}"
                    )
                if family.label_names != tuple(labels):
                    raise ValueError(
                        f"{name} already registered with labels "
                        f"{family.label_names}, not {tuple(labels)}"
                    )
                if kind == HISTOGRAM and family.buckets != buckets:
                    raise ValueError(f"{name} already registered with other buckets")
        return _HANDLE_TYPES[kind](self, family)

    # -- reads ---------------------------------------------------------------

    def families(self) -> Iterator[MetricFamily]:
        return iter(sorted(self._families.values(), key=lambda f: f.name))

    def counter_total(self, name: str) -> float:
        """Sum of a counter family across all labelsets (0.0 when absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return float(sum(family.samples.values()))  # type: ignore[arg-type]

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    # -- snapshot / merge ----------------------------------------------------

    def to_record(self) -> Dict[str, object]:
        """JSON-serializable snapshot (a parallel detector task returns one
        in its ShardOutcome)."""
        with self._lock:
            families = {}
            for family in self.families():
                samples = []
                for key in sorted(family.samples):
                    value = family.samples[key]
                    samples.append(
                        [
                            list(key),
                            value.to_record()
                            if isinstance(value, HistogramData)
                            else value,
                        ]
                    )
                families[family.name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labels": list(family.label_names),
                    "buckets": list(family.buckets) if family.buckets else None,
                    "samples": samples,
                }
            return {"families": families}

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(record)
        return registry

    def merge(self, other: Union["MetricsRegistry", Mapping[str, object]]) -> None:
        """Fold another registry (or its record) into this one.

        Counters and histogram buckets add; gauges take the maximum — all
        commutative and associative, so task snapshots merge to identical
        totals in any order.
        """
        record = other.to_record() if isinstance(other, MetricsRegistry) else other
        with self._lock:
            for name, spec in record.get("families", {}).items():  # type: ignore[union-attr]
                kind = spec["kind"]
                buckets = tuple(spec["buckets"]) if spec.get("buckets") else None
                self._handle(name, kind, spec.get("help", ""), spec["labels"], buckets)
                family = self._families[name]
                for key_list, value in spec["samples"]:
                    key = tuple(key_list)
                    if kind == HISTOGRAM:
                        incoming = HistogramData.from_record(value)
                        data = family.samples.get(key)
                        if data is None:
                            family.samples[key] = incoming
                        else:
                            if len(data.bucket_counts) != len(incoming.bucket_counts):
                                raise ValueError(
                                    f"{name}: histogram bucket layouts differ"
                                )
                            for i, c in enumerate(incoming.bucket_counts):
                                data.bucket_counts[i] += c
                            data.sum += incoming.sum
                            data.count += incoming.count
                    elif kind == COUNTER:
                        family.samples[key] = family.samples.get(key, 0.0) + value
                    else:  # gauge: high-water mark
                        current = family.samples.get(key)
                        if current is None or value > current:
                            family.samples[key] = float(value)

    # -- exposition ----------------------------------------------------------

    def render_text(self) -> str:
        """Prometheus text exposition format, deterministically ordered."""
        lines: List[str] = []
        with self._lock:
            for family in self.families():
                if not family.samples:
                    continue
                # HELP text is one line by format; escape like Prometheus
                # clients do so backslashes/newlines survive a round trip.
                escaped_help = family.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {family.name} {escaped_help}")
                lines.append(f"# TYPE {family.name} {family.kind}")
                for key in sorted(family.samples):
                    value = family.samples[key]
                    if isinstance(value, HistogramData):
                        cumulative = 0
                        bounds = [_format_value(b) for b in family.buckets] + ["+Inf"]
                        for bound, count in zip(bounds, value.bucket_counts):
                            cumulative += count
                            labels = _render_labels(
                                family.label_names + ("le",), key + (bound,)
                            )
                            lines.append(
                                f"{family.name}_bucket{labels} {cumulative}"
                            )
                        labels = _render_labels(family.label_names, key)
                        lines.append(
                            f"{family.name}_sum{labels} {_format_value(value.sum)}"
                        )
                        lines.append(f"{family.name}_count{labels} {value.count}")
                    else:
                        labels = _render_labels(family.label_names, key)
                        lines.append(
                            f"{family.name}{labels} {_format_value(value)}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    def flat_samples(self) -> Dict[str, float]:
        """One flat ``{'name{label="v"}': value}`` mapping of every sample.

        Exactly the series :func:`parse_text` recovers from
        :meth:`render_text` — histogram buckets appear as cumulative
        ``_bucket{...,le="..."}`` series plus ``_sum``/``_count``. The
        heartbeat's timeline snapshots use this, so a run's final
        snapshot and its ``metrics.prom`` agree by construction.
        """
        return parse_text(self.render_text())

    def write_textfile(self, path: str) -> str:
        """Atomically write :meth:`render_text` output (textfile-collector style)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(self.render_text())
        os.replace(tmp_path, path)
        return path


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return format(float(value), ".9g")


def _render_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    escaped = (
        str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        for v in values
    )
    return "{" + ",".join(f'{n}="{v}"' for n, v in zip(names, escaped)) + "}"


def parse_text(text: str) -> Dict[str, float]:
    """Parse an exposition back into ``{'name{label="v"}': value}``.

    Deliberately minimal — enough for tests and CI to assert on a written
    textfile without a prometheus client dependency.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        samples[series] = float("inf") if value == "+Inf" else float(value)
    return samples


# -- process-wide default registry -------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry()
_ACTIVE = threading.local()


def get_registry() -> MetricsRegistry:
    """The registry instrumented code records into (thread-scoped override
    via :func:`use_registry`, else the process-wide default)."""
    return getattr(_ACTIVE, "registry", None) or _DEFAULT_REGISTRY


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:  # repro-lint: disable=RL703  # embedding API: hosts swap the process registry
    """Replace the process-wide default registry; returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scope :func:`get_registry` to *registry* for the current thread.

    Parallel detector tasks wrap their detector in this so each task's
    snapshot is isolated; tests use it to keep assertions off the global registry.
    """
    if registry is None:
        registry = MetricsRegistry()
    previous = getattr(_ACTIVE, "registry", None)
    _ACTIVE.registry = registry
    try:
        yield registry
    finally:
        _ACTIVE.registry = previous
