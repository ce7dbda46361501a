"""Injected faults must be visible in traces, not just in counters."""

from __future__ import annotations

import pytest

from repro.net.protocol import DataRequest, DataResponse
from repro.serving.faults import (
    FaultInjectingService,
    FaultInjectingTransport,
    FaultSchedule,
    InjectedFaultError,
)


def _request() -> DataRequest:
    return DataRequest(
        canvas_id="c", layer_index=0, granularity="box",
        xmin=0.0, ymin=0.0, xmax=1.0, ymax=1.0,
    )


class _EchoService:
    def handle(self, request):
        return DataResponse(request=request, objects=[], query_ms=0.0,
                            from_cache=False, queries_issued=0)


class _EchoTransport:
    def roundtrip(self, payload: bytes) -> bytes:
        return payload

    def close(self) -> None:
        pass


def _fault_events(tracer):
    events = []
    for trace in tracer.traces():
        for span in trace["spans"]:
            for event in span["events"]:
                if event["name"] == "fault_injected":
                    events.append((span["name"], event))
    return events


class TestServiceSeam:
    def test_error_fault_is_an_event_on_the_open_span(self, tracer):
        injector = FaultInjectingService(_EchoService(), FaultSchedule.fail_nth(0))
        with pytest.raises(InjectedFaultError):
            with tracer.span("replica_attempt", replica=0):
                injector.handle(_request())
        ((span_name, event),) = _fault_events(tracer)
        assert span_name == "replica_attempt"
        assert event["seam"] == "service"
        assert event["kind"] == "error"
        assert event["op"] == "handle"

    def test_latency_fault_records_its_milliseconds(self, tracer):
        class _Clock:
            def advance(self, ms):
                pass

        injector = FaultInjectingService(
            _EchoService(), FaultSchedule.slow(25.0), clock=_Clock()
        )
        with tracer.span("replica_attempt"):
            injector.handle(_request())
        ((_, event),) = _fault_events(tracer)
        assert event["kind"] == "latency"
        assert event["latency_ms"] == 25.0

    def test_no_fault_means_no_event(self, tracer):
        injector = FaultInjectingService(_EchoService(), FaultSchedule())
        with tracer.span("replica_attempt"):
            injector.handle(_request())
        assert _fault_events(tracer) == []


class TestTransportSeam:
    def test_transport_faults_are_events_too(self, tracer):
        injector = FaultInjectingTransport(
            _EchoTransport(), FaultSchedule.fail_nth(0, op="roundtrip")
        )
        with pytest.raises(InjectedFaultError):
            with tracer.span("rpc", op="handle"):
                injector.roundtrip(b"")
        ((span_name, event),) = _fault_events(tracer)
        assert span_name == "rpc"
        assert event["seam"] == "transport"
        assert event["kind"] == "error"

    def test_disabled_tracing_injects_without_events(self, disabled_tracer):
        injector = FaultInjectingTransport(
            _EchoTransport(), FaultSchedule.fail_nth(0, op="roundtrip")
        )
        with pytest.raises(InjectedFaultError):
            injector.roundtrip(b"")
        assert disabled_tracer.traces() == []
