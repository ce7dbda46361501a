"""Unit tests for the tracer: spans, the trace buffer, propagation, export."""

from __future__ import annotations

import json
import threading

import pytest

from repro.config import KyrixConfig, TelemetryConfig
from repro.errors import KyrixError
from repro.telemetry import configure
from repro.telemetry.tracer import NULL_SPAN


class TestDisabled:
    def test_span_is_the_null_singleton(self, disabled_tracer):
        span = disabled_tracer.span("anything", attr=1)
        assert span is NULL_SPAN
        with span as inner:
            inner.set_attribute("ignored", True)
            inner.add_event("ignored")
        assert disabled_tracer.traces() == []

    def test_no_context_crosses_the_wire(self, disabled_tracer):
        assert disabled_tracer.current_context() is None
        with disabled_tracer.remote_trace({"trace_id": "x"}) as record:
            assert record is None


class TestSpans:
    def test_nested_spans_share_a_trace_and_parent_correctly(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        trace = tracer.last_trace()
        assert {s["name"] for s in trace["spans"]} == {"outer", "inner"}
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]

    def test_sibling_roots_start_separate_traces(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        traces = tracer.traces()
        assert len(traces) == 2
        assert traces[0]["trace_id"] != traces[1]["trace_id"]

    def test_attributes_and_events_are_recorded(self, tracer):
        with tracer.span("op", shard=3) as span:
            span.set_attribute("hit", True)
            span.add_event("fault_injected", kind="error")
        (span_dict,) = tracer.last_trace()["spans"]
        assert span_dict["attributes"]["shard"] == 3
        assert span_dict["attributes"]["hit"] is True
        (event,) = span_dict["events"]
        assert event["name"] == "fault_injected"
        assert event["kind"] == "error"
        assert event["offset_ms"] >= 0

    def test_exception_stamps_an_error_attribute_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span_dict,) = tracer.last_trace()["spans"]
        assert span_dict["attributes"]["error"] == "ValueError"

    def test_current_span_tracks_the_innermost_open_span(self, tracer):
        assert tracer.current_span() is NULL_SPAN
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is NULL_SPAN


class TestBuffer:
    def test_every_trace_is_recorded(self):
        tracer = configure(enabled=True, trace_buffer=64)
        for _ in range(10):
            with tracer.span("op"):
                pass
        assert len(tracer.traces()) == 10
        configure(enabled=False)

    def test_ring_buffer_keeps_the_newest_traces(self):
        tracer = configure(enabled=True, trace_buffer=3)
        for index in range(5):
            with tracer.span("op", index=index):
                pass
        traces = tracer.traces()
        assert len(traces) == 3
        kept = [t["spans"][0]["attributes"]["index"] for t in traces]
        assert kept == [2, 3, 4]
        configure(enabled=False)

    def test_get_trace_by_id(self, tracer):
        with tracer.span("op") as span:
            trace_id = span.trace_id
        assert tracer.get_trace(trace_id)["trace_id"] == trace_id
        assert tracer.get_trace("deadbeef") is None

    def test_disabling_drops_the_buffer_and_records_nothing(self):
        tracer = configure(enabled=True, trace_buffer=8)
        with tracer.span("op"):
            pass
        assert len(tracer.traces()) == 1
        configure(enabled=False)
        with tracer.span("op"):
            pass
        assert tracer.traces() == []


class TestPropagation:
    def test_attach_joins_a_pool_thread_to_the_live_trace(self, tracer):
        seen: list[dict] = []

        def worker(context):
            with tracer.attach(context):
                with tracer.span("shard", shard_id=0):
                    pass

        with tracer.span("request") as root:
            context = tracer.current_context()
            assert context == {
                "trace_id": root.trace_id,
                "span_id": root.span_id,
                "sampled": True,
            }
            thread = threading.Thread(target=worker, args=(context,))
            thread.start()
            thread.join()
        trace = tracer.last_trace()
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["shard"]["trace_id"] == by_name["request"]["trace_id"]
        assert by_name["shard"]["parent_id"] == by_name["request"]["span_id"]

    def test_attach_to_a_finished_trace_is_a_noop(self, tracer):
        with tracer.span("request"):
            context = tracer.current_context()
        with tracer.attach(context):
            with tracer.span("late"):
                pass
        # The late span started its own trace instead of resurrecting the old.
        assert len(tracer.traces()) == 2

    def test_remote_trace_collects_spans_for_the_caller(self, tracer):
        context = {"trace_id": "cafe" * 8, "span_id": "beef" * 4, "sampled": True}
        with tracer.remote_trace(context) as collected:
            with tracer.span("execute"):
                pass
        assert collected is not None
        (span_dict,) = collected.spans
        assert span_dict["trace_id"] == context["trace_id"]
        assert span_dict["parent_id"] == context["span_id"]
        # Remote records never enter the local ring buffer.
        assert tracer.traces() == []

    def test_ingest_merges_remote_spans_into_the_open_trace(self, tracer):
        remote = [
            {"name": "execute", "trace_id": "t", "span_id": "s", "parent_id": "p",
             "start_unix_ms": 0.0, "duration_ms": 1.0, "attributes": {}, "events": []}
        ]
        with tracer.span("rpc"):
            tracer.ingest(remote)
        names = {s["name"] for s in tracer.last_trace()["spans"]}
        assert names == {"rpc", "execute"}


class TestExport:
    def test_completed_traces_append_jsonl(self, tmp_path):
        export = tmp_path / "traces.jsonl"
        tracer = configure(enabled=True, export_path=str(export))
        for index in range(3):
            with tracer.span("op", index=index):
                pass
        configure(enabled=False)
        lines = export.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            document = json.loads(line)
            assert document["spans"][0]["name"] == "op"


class TestConfig:
    def test_configure_reads_the_config_section(self, tmp_path):
        section = TelemetryConfig(enabled=True, export_path=str(tmp_path / "t.jsonl"))
        tracer = configure(section)
        assert tracer.enabled is True
        assert tracer.export_path == section.export_path
        configure(enabled=False)

    def test_telemetry_config_round_trips_through_dict(self):
        config = KyrixConfig()
        config.telemetry.enabled = True
        restored = KyrixConfig.from_dict(config.to_dict())
        assert restored.telemetry.enabled is True

    def test_telemetry_config_validates(self):
        for key, value in (("enabled", "yes"), ("enabled", 1), ("export_path", 3)):
            with pytest.raises(KyrixError, match=rf"'telemetry\.{key}'"):
                KyrixConfig.from_dict({"telemetry": {key: value}})

    def test_configure_has_no_sampling_knob(self):
        with pytest.raises(TypeError):
            configure(enabled=True, sample_rate=0.5)
        configure(enabled=False)
