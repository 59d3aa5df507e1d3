"""Unit tests for span tracing and the structured JSON log bridge."""

import io
import json
import logging
import threading

import pytest

from repro.obs import (
    configure_json_logging,
    log,
    names,
    open_spans,
    remove_json_logging,
    span,
    use_collector,
    use_registry,
)
from repro.obs.metrics import MetricsRegistry


def open_span_names():
    """Names of the spans open on this thread, outermost first."""
    me = threading.get_ident()
    mine = [record for record in open_spans() if record["thread"] == me]
    return [record["name"] for record in sorted(mine, key=lambda r: r["depth"])]


class TestSpan:
    def test_records_histogram_sample_by_name(self):
        registry = MetricsRegistry()
        with span("unit_test_block", registry=registry):
            pass
        data = registry.histogram(
            names.SPAN_SECONDS, labels=("name",)
        ).data(name="unit_test_block")
        assert data is not None
        assert data.count == 1
        assert data.sum >= 0.0

    def test_uses_active_registry_by_default(self):
        with use_registry() as registry:
            with span("scoped_block"):
                pass
        data = registry.histogram(
            names.SPAN_SECONDS, labels=("name",)
        ).data(name="scoped_block")
        assert data is not None and data.count == 1

    def test_nesting_depth_and_parent(self):
        assert open_span_names() == []
        with span("outer") as outer:
            assert outer.depth == 0 and outer.parent is None
            assert open_span_names() == ["outer"]
            with span("inner") as inner:
                assert inner.depth == 1
                assert inner.parent == "outer"
                assert open_span_names() == ["outer", "inner"]
            assert open_span_names() == ["outer"]
        assert open_span_names() == []

    def test_seconds_filled_on_exit_even_on_error(self):
        registry = MetricsRegistry()
        try:
            with span("failing", registry=registry) as traced:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert traced.seconds is not None
        data = registry.histogram(
            names.SPAN_SECONDS, labels=("name",)
        ).data(name="failing")
        assert data is not None and data.count == 1

    def test_attrs_stay_out_of_metric_labels(self):
        registry = MetricsRegistry()
        with span("labelled", registry=registry, day=17):
            pass
        family = next(iter(registry.families()))
        assert family.label_names == ("name",)


class TestSpanStatus:
    def test_status_ok_by_default(self):
        with span("fine") as traced:
            pass
        assert traced.status == "ok"

    def test_status_error_on_raise_and_exception_propagates(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="boom"):
            with span("failing", registry=registry) as traced:
                raise ValueError("boom")
        assert traced.status == "error"

    def test_exception_counter_bumped_per_name(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with span("fallible", registry=registry):
                raise RuntimeError("x")
        counter = registry.counter(
            names.SPAN_EXCEPTIONS, labels=("name",)
        )
        assert counter.value(name="fallible") == 1

    def test_exception_counter_absent_for_clean_spans(self):
        registry = MetricsRegistry()
        with span("clean", registry=registry):
            pass
        family_names = {f.name for f in registry.families()}
        assert names.SPAN_EXCEPTIONS not in family_names

    def test_status_recorded_on_trace_end_event(self):
        registry = MetricsRegistry()
        with use_collector() as collector:
            with span("traced_ok", registry=registry):
                pass
            with pytest.raises(RuntimeError):
                with span("traced_bad", registry=registry):
                    raise RuntimeError("x")
        ends = {
            e["name"]: e["args"]["status"]
            for e in collector.events()
            if e["ph"] == "E"
        }
        assert ends == {"traced_ok": "ok", "traced_bad": "error"}

    def test_status_included_in_span_log_record(self):
        registry = MetricsRegistry()
        stream = io.StringIO()
        handler = configure_json_logging(stream=stream, level=logging.DEBUG)
        try:
            with pytest.raises(RuntimeError):
                with span("logged_failure", registry=registry):
                    raise RuntimeError("x")
        finally:
            remove_json_logging(handler)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        (record,) = [r for r in records if r.get("event") == "span"]
        assert record["name"] == "logged_failure"
        assert record["status"] == "error"


class TestJsonLogBridge:
    def _capture(self, emit, level=logging.DEBUG):
        stream = io.StringIO()
        handler = configure_json_logging(stream=stream, level=level)
        try:
            emit()
        finally:
            remove_json_logging(handler)
        return [json.loads(line) for line in stream.getvalue().splitlines()]

    def test_structured_fields_inlined(self):
        records = self._capture(
            lambda: log("fetch_done", subsystem="revocation", operator="X", tries=3)
        )
        assert len(records) == 1
        record = records[0]
        assert record["event"] == "fetch_done"
        assert record["logger"] == "repro.revocation"
        assert record["level"] == "info"
        assert record["operator"] == "X"
        assert record["tries"] == 3
        assert isinstance(record["ts"], float)

    def test_plain_stdlib_records_come_out_as_json(self):
        records = self._capture(
            lambda: logging.getLogger("repro.somewhere").warning("plain %s", "msg")
        )
        assert records == [records[0]]
        assert records[0]["event"] == "plain msg"
        assert records[0]["level"] == "warning"

    def test_span_emits_debug_record_with_attrs(self):
        registry = MetricsRegistry()

        def emit():
            with span("traced_op", registry=registry, day=42):
                pass

        records = self._capture(emit)
        (record,) = [r for r in records if r["event"] == "span"]
        assert record["name"] == "traced_op"
        assert record["day"] == 42
        assert record["depth"] == 0
        assert record["parent"] is None
        assert record["seconds"] >= 0

    def test_handler_level_filters(self):
        records = self._capture(
            lambda: log("quiet", level=logging.DEBUG), level=logging.INFO
        )
        assert records == []

    def test_non_serializable_values_degrade_to_str(self):
        records = self._capture(lambda: log("odd", payload=object()))
        assert "object object at" in records[0]["payload"]

    def test_silent_without_configured_handler(self, capsys):
        log("nobody_listens", detail=1)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
