"""Wire-level transport: encode -> decode -> handle -> encode -> decode parity."""

from __future__ import annotations

import json

import pytest

from repro.net import columnar
from repro.net.protocol import DataRequest
from repro.serving import (
    LocalTransport,
    RemoteBackendStub,
    TransportError,
    TransportService,
)


class TestTransportParity:
    def test_cached_roundtrip_equals_in_process_exactly(self, dots_stack, box_request):
        cached = dots_stack.service
        cached.handle(box_request)  # populate the server-side cache
        in_process = cached.handle(box_request)
        assert in_process.from_cache is True  # deterministic (query_ms == 0)
        wire = TransportService(cached).handle(box_request)
        assert wire == in_process

    def test_fresh_roundtrip_carries_identical_payload(self, dots_stack, box_request):
        backend = dots_stack.backend
        service = TransportService(backend)
        wire = service.handle(box_request)
        in_process = backend.handle(box_request)
        # Timings are measurements and may differ; the data-bearing fields
        # must be identical — including tuple-typed columns like bbox.
        assert wire.request == in_process.request
        assert wire.objects == in_process.objects
        assert wire.queries_issued == in_process.queries_issued
        assert json.dumps(list(wire.objects), sort_keys=True) == json.dumps(
            list(in_process.objects), sort_keys=True
        )

    def test_objects_keep_canonical_tuple_columns(self, dots_stack, box_request):
        wire = TransportService(dots_stack.backend).handle(box_request)
        assert wire.objects, "the parity box should not be empty"
        for obj in wire.objects:
            assert isinstance(obj["bbox"], tuple)


class TestTransportFaults:
    def test_server_errors_reraise_client_side(self, dots_stack):
        service = TransportService(dots_stack.backend)
        bad = DataRequest(
            canvas_id="no-such-canvas",
            layer_index=0,
            granularity="box",
            xmin=0.0,
            ymin=0.0,
            xmax=1.0,
            ymax=1.0,
        )
        with pytest.raises(TransportError, match="no-such-canvas"):
            service.handle(bad)

    @pytest.mark.parametrize(
        "frame",
        [
            # A canvas_info call and a result, as kinds 4 and 5 once carried
            # them: a shard serves requests alone, so both are unknown kinds.
            "040000000b63616e7661735f696e666f000000157b2263616e7661735f6964223a2022"
            "646f7473227d",
            "050000000e7b227769647468223a20382e307d",
        ],
        ids=["kind-4", "kind-5"],
    )
    def test_retired_call_and_result_kinds_are_wire_faults(self, dots_stack, frame):
        payload = bytes.fromhex(frame)
        transport = LocalTransport(dots_stack.backend)
        name, message = columnar.decode_error(transport.roundtrip(payload))
        assert name == "ProtocolError"
        assert f"got kind {payload[0]}" in message

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"\xffnot a message at all",
            columnar.encode_error(ValueError("boom")),  # a valid kind no endpoint serves
            columnar.encode_request(
                DataRequest("dots", 0, "box", xmin=0.0, ymin=0.0,
                            xmax=1.0, ymax=1.0)
            )[:-3],
        ],
        ids=["empty", "unknown-kind", "unserved-kind", "truncated"],
    )
    def test_garbage_payload_is_a_wire_fault(self, dots_stack, payload):
        transport = LocalTransport(dots_stack.backend)
        name, _ = columnar.decode_error(transport.roundtrip(payload))
        assert name == "ProtocolError"


class TestStub:
    def test_stub_serves_a_frontend_end_to_end(self, dots_stack):
        from repro.client import KyrixFrontend

        backend = dots_stack.backend
        stub = RemoteBackendStub(
            LocalTransport(backend), backend.compiled, backend.config
        )
        frontend = KyrixFrontend(stub)
        frontend.load_initial_canvas()
        frontend.pan_by(256.0, 0.0)
        assert frontend.metrics.total_requests() >= 1

    def test_wire_stats_count_shard_boundary_traffic(self, dots_stack, box_request):
        backend = dots_stack.backend
        service = TransportService(backend)
        response = service.handle(box_request)
        assert response.objects
        # The stub's wire accounting sees the real encodings (one binary
        # columnar message each way) plus the 4-byte frame header.
        wire = service.stub.wire_stats
        assert wire.calls == 1
        assert wire.bytes_sent == len(columnar.encode_request(box_request)) + 4
        assert wire.bytes_received == len(columnar.encode_response(response)) + 4
        # The seam keeps no counters of its own: stats are the engine's.
        assert service.stats is backend.stats
