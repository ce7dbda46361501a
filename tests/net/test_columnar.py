"""Unit tests for the shard wire format and the lossless-wire bugfixes.

Covers the three bugfix regressions — ``default=str`` coercion removed
from the JSON encoder, recursive canonicalisation of nested sequence
columns, and chatty peers raising
:class:`~repro.errors.ProtocolViolationError` instead of blaming a
truncated stream — plus every message kind's round-trip, the golden bytes
that freeze the format, and the typed fallbacks that keep it lossless.
"""

from __future__ import annotations

import datetime
import operator
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro.errors import (
    ProtocolError,
    ProtocolViolationError,
    TruncatedFrameError,
    WorkerConnectionError,
)
from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse, RowBatch
from repro.net.socket_transport import encode_frame, read_frame


def box_request(**overrides):
    fields = dict(
        app_name="dots",
        canvas_id="dots",
        layer_index=0,
        granularity="box",
        design="spatial",
        xmin=0.0,
        ymin=0.0,
        xmax=256.0,
        ymax=256.0,
        shard_id=3,
    )
    fields.update(overrides)
    return DataRequest(**fields)


def tile_request(**overrides):
    fields = dict(
        app_name="dots",
        canvas_id="dots",
        layer_index=1,
        granularity="tile",
        design="mapping",
        tile_id=42,
        tile_size=1024,
    )
    fields.update(overrides)
    return DataRequest(**fields)


def response(objects, **overrides):
    fields = dict(
        request=box_request(),
        objects=objects,
        query_ms=1.25,
        from_cache=False,
        queries_issued=2,
        shard_ms={"shard0": 0.5, "shard1": 0.75},
        coalesced=True,
    )
    fields.update(overrides)
    return DataResponse(**fields)


#: kind -> (one encoded message of that kind, its decoder).
MESSAGES = {
    "request": (columnar.encode_request(box_request()), columnar.decode_request),
    "response": (
        columnar.encode_response(response([{"tuple_id": 1}])),
        columnar.decode_response,
    ),
    "error": (columnar.encode_error(ValueError("boom")), columnar.decode_error),
}


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------


class TestLosslessWireBugfixes:
    def test_datetime_column_raises_typed_protocol_error_on_json(self):
        # Regression: `default=str` used to silently stringify this,
        # producing a payload that decoded to a *different* response.
        bad = response([{"when": datetime.datetime(2026, 8, 8, 12, 0)}])
        with pytest.raises(ProtocolError, match="datetime"):
            bad.to_json()

    def test_datetime_column_raises_typed_protocol_error_on_binary(self):
        bad = response([{"when": datetime.datetime(2026, 8, 8, 12, 0)}])
        with pytest.raises(ProtocolError, match="datetime"):
            columnar.encode_response(bad)

    def test_nested_sequences_decode_to_tuples_at_every_depth(self):
        # Regression: `_canonical_object` used to tuple-ise only the top
        # level, so a polygon column (list of point pairs) round-tripped
        # to a tuple *of lists* and broke response equality.
        polygon = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
        original = response([{"polygon": polygon, "ring": ((1, 2), (3, (4, 5)))}])
        decoded = DataResponse.from_json(original.to_json())
        assert decoded == original
        assert decoded.objects[0]["polygon"] == polygon
        assert isinstance(decoded.objects[0]["polygon"][0], tuple)
        assert isinstance(decoded.objects[0]["ring"][1][1], tuple)

    def test_extra_frames_raise_protocol_violation(self):
        # Regression: a live peer pipelining a second frame used to raise
        # TruncatedFrameError, blaming a "truncated" stream for a chatty
        # peer.  The violation error subclasses it for compatibility.
        assert issubclass(ProtocolViolationError, TruncatedFrameError)
        client, peer = socket.socketpair()
        try:
            peer.sendall(encode_frame(b"one") + encode_frame(b"two"))
            with pytest.raises(ProtocolViolationError, match="more than one frame"):
                read_frame(client)
        finally:
            client.close()
            peer.close()

    def test_socket_transport_names_the_violation(self):
        from repro.net.socket_transport import SocketTransport

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def chatty_server():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)
                # One sendall: both frames are in the client's first recv,
                # so the violation cannot race the client's read.
                conn.sendall(encode_frame(b"first") + encode_frame(b"second"))

        thread = threading.Thread(target=chatty_server, daemon=True)
        thread.start()
        transport = SocketTransport("127.0.0.1", port)
        try:
            with pytest.raises(
                WorkerConnectionError, match="violated the framing protocol"
            ):
                transport.roundtrip(b"hello?")
        finally:
            transport.close()
            listener.close()
            thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# Request round-trips
# ---------------------------------------------------------------------------


class TestRequestRoundTrip:
    @pytest.mark.parametrize("request_", [box_request(), tile_request()])
    def test_roundtrip_is_identity(self, request_):
        decoded, context = columnar.decode_request(columnar.encode_request(request_))
        assert decoded == request_
        assert context is None

    def test_trace_context_is_stamped_and_popped(self):
        request = box_request()
        context = {"trace_id": "t1", "span_id": "s1", "sampled": True}
        body = columnar.encode_request(request, trace=context)
        decoded, popped = columnar.decode_request(body)
        # The context rides the wire form only; the rebuilt request (and
        # any cache keyed on it) never sees it — exactly the JSON path.
        assert popped == context
        assert decoded.trace is None
        assert decoded == request

    @pytest.mark.parametrize("kind", sorted(MESSAGES))
    def test_wrong_kind_raises(self, kind):
        _, decode = MESSAGES[kind]
        for other in sorted(set(MESSAGES) - {kind}):
            body, _ = MESSAGES[other]
            with pytest.raises(ProtocolError, match=f"expected an? {kind}"):
                decode(body)

    @pytest.mark.parametrize("kind", sorted(MESSAGES))
    def test_truncated_body_raises(self, kind):
        body, decode = MESSAGES[kind]
        with pytest.raises(ProtocolError, match="truncated"):
            decode(body[: len(body) // 2])

    @pytest.mark.parametrize("kind", sorted(MESSAGES))
    def test_trailing_bytes_raise(self, kind):
        body, decode = MESSAGES[kind]
        with pytest.raises(ProtocolError, match="trailing"):
            decode(body + b"\x00")


# ---------------------------------------------------------------------------
# Response round-trips and column typing
# ---------------------------------------------------------------------------


def roundtrip(resp):
    decoded, spans = columnar.decode_response(columnar.encode_response(resp))
    assert spans == []
    return decoded


class TestResponseRoundTrip:
    def test_typed_columns_roundtrip(self):
        objects = [
            {
                "tuple_id": row,
                "x": row * 1.5,
                "label": f"row{row}",
                "flag": row % 2 == 0,
                "bbox": (0.0 + row, 1.0, 2.0, 3.0),
            }
            for row in range(10)
        ]
        assert roundtrip(response(objects)) == response(objects)

    def test_scalar_fields_and_shard_ms_survive(self):
        decoded = roundtrip(response([]))
        assert decoded.query_ms == 1.25
        assert decoded.queries_issued == 2
        assert decoded.coalesced is True
        assert decoded.shard_ms == {"shard0": 0.5, "shard1": 0.75}

    def test_nulls_and_missing_keys_are_distinct(self):
        objects = [{"a": 1, "b": None}, {"a": 2}, {"b": None}]
        decoded = roundtrip(response(objects))
        assert decoded.objects == objects
        assert "b" not in decoded.objects[1]

    def test_mixed_int_float_column_stays_lossless(self):
        # Packing 1 and 1.0 into one numeric column would retype one of
        # them; the codec must fall back to JSON cells instead.
        objects = [{"v": 1}, {"v": 1.0}, {"v": 2}]
        decoded = roundtrip(response(objects))
        assert decoded.objects == objects
        assert isinstance(decoded.objects[0]["v"], int)
        assert isinstance(decoded.objects[1]["v"], float)

    def test_out_of_i64_range_integers_survive(self):
        objects = [{"big": 2**80}, {"big": -(2**70)}]
        assert roundtrip(response(objects)).objects == objects

    def test_bools_are_not_packed_as_ints(self):
        objects = [{"v": True}, {"v": 1}]
        decoded = roundtrip(response(objects))
        assert decoded.objects[0]["v"] is True
        assert isinstance(decoded.objects[1]["v"], int)

    def test_nested_sequence_columns_roundtrip_canonically(self):
        objects = [{"polygon": ((0.0, 0.0), (1.0, 0.0))}]
        assert roundtrip(response(objects)).objects == objects

    def test_remote_spans_ride_the_message(self):
        spans = [{"name": "query", "duration_ms": 1.0}]
        body = columnar.encode_response(response([]), trace=spans)
        decoded, shipped = columnar.decode_response(body)
        assert shipped == spans
        # Decoded responses stay byte-identical whether or not the far
        # side traced: the span list never lands on the response itself.
        assert decoded.trace == []

    def test_decoded_payload_matches_the_json_codec_byte_for_byte(self):
        objects = [
            {"tuple_id": 7, "x": 1.5, "bbox": (0.0, 1.0, 2.0, 3.0)},
            {"tuple_id": 8, "label": "s", "nested": ((1.0, 2.0),)},
        ]
        original = response(objects)
        via_binary = roundtrip(original)
        via_json = DataResponse.from_json(original.to_json())
        assert via_binary == via_json
        assert via_binary.to_json() == via_json.to_json()

    def test_a_batch_encodes_as_its_rows_and_reading_it_builds_new_ones(self):
        tuples = [(7, 1.5, (0.0, 1.0), None), (8, -2.25, (4.0, 5.0), "b")]
        batch = RowBatch(("tuple_id", "x", "bbox", "label"), list(tuples))
        as_tuples = columnar.encode_response(response(batch))
        assert as_tuples == columnar.encode_response(response([dict(obj) for obj in batch]))
        # Every read builds the rows afresh: equal, never the same objects...
        first, second = batch.to_dicts(), batch.to_dicts()
        assert first == second and first is not second
        assert not any(map(operator.is_, first, second))
        assert batch[0] is not batch[0] and batch[:1] == first[:1]
        # ...so an edit stays with the reader, and the batch is as it was.
        first[0]["x"] = 0.0
        assert batch[0]["x"] == 1.5 and batch.rows == tuples
        assert columnar.encode_response(response(batch)) == as_tuples

    def test_a_decoded_dense_block_is_a_batch_nobody_has_read(self):
        decoded = roundtrip(response([{"tuple_id": 1, "x": 0.5}, {"tuple_id": 2, "x": 1.5}]))
        assert isinstance(decoded.objects, RowBatch) and not decoded.objects.sparse
        assert decoded.objects.rows == [(1, 0.5), (2, 1.5)]

    def test_binary_encoding_is_smaller_than_json_for_wide_rows(self):
        objects = [
            {"tuple_id": row, "x": row * 0.5, "y": row * 0.25,
             "bbox": (0.0 + row, 1.0, 2.0, 3.0)}
            for row in range(200)
        ]
        wide = response(objects)
        assert len(columnar.encode_response(wide)) < len(wide.to_json().encode())


class TestDeclaredShapeIsCheckedBeforeAllocation:
    """A frame's ``n_rows`` / ``n_cols`` are claims; the bytes are the evidence.

    Regression: the decoder built ``[{} for _ in range(n_rows)]`` before it
    read a single column, so a 120-byte frame declaring 20 000 000 rows
    cost 9.9 s and 1.4 GB before it raised, and one declaring 2**32 - 1 got
    the process killed — on whatever a worker socket delivered.
    """

    @staticmethod
    def _declaring(n_rows, n_cols):
        empty = columnar.encode_response(response([]))
        return empty[:-8] + struct.pack(">II", n_rows, n_cols)

    @pytest.mark.parametrize("n_rows", [20_000_000, 2**32 - 1])
    @pytest.mark.parametrize("n_cols", [0, 1])
    def test_oversized_shape_is_refused_fast_and_flat(self, n_rows, n_cols):
        frame = self._declaring(n_rows, n_cols)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(ProtocolError, match="truncated|without a column"):
                columnar.decode_response(frame)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05
        assert peak < 64 * 1024

    def test_column_count_is_checked_against_the_bytes_too(self):
        with pytest.raises(ProtocolError, match="truncated"):
            columnar.decode_response(self._declaring(0, 2**32 - 1))

    def test_rows_without_a_column_are_capped_on_both_sides(self):
        # The one shape whose size the bytes cannot vouch for: the encoder
        # refuses what the decoder would, so decode(encode(r)) == r holds
        # for everything that can be encoded.
        most = response([{}] * columnar.MAX_EMPTY_ROWS)
        assert roundtrip(most) == most
        with pytest.raises(ProtocolError, match="without a column"):
            columnar.encode_response(response([{}] * (columnar.MAX_EMPTY_ROWS + 1)))


class TestErrors:
    def test_error_roundtrip(self):
        body = columnar.encode_error(ValueError("boom"))
        assert columnar.message_kind(body) == columnar.MSG_ERROR
        assert columnar.decode_error(body) == ("ValueError", "boom")

    def test_empty_message_raises(self):
        with pytest.raises(ProtocolError, match="empty"):
            columnar.message_kind(b"")

    @pytest.mark.parametrize("kind", [4, 5, 6, 0xFF])
    def test_a_kind_past_error_is_unknown_to_every_decoder(self, kind):
        # Three kinds exist; 4 and 5 (the retired metadata call and result)
        # are as unknown as any other byte.
        assert (columnar.MSG_REQUEST, columnar.MSG_RESPONSE, columnar.MSG_ERROR) == (1, 2, 3)
        for body, decode in MESSAGES.values():
            with pytest.raises(ProtocolError, match=f"got kind {kind}"):
                decode(bytes([kind]) + body[1:])


# ---------------------------------------------------------------------------
# Golden bytes: the one wire format, frozen
# ---------------------------------------------------------------------------

_GOLDEN_REQUEST = (
    "0100000004646f747300000004646f7473000000000000000000000003626f7800000007"
    "7370617469616c0000010000000000000000010000000000000000014070000000000000"
    "014070000000000000010000000000000003"
)
_TRACE_CONTEXT = {"trace_id": "t1", "span_id": "s1", "sampled": True}
_GOLDEN_OBJECTS = [
    {"tuple_id": 7, "x": 1.5, "label": "a", "flag": True,
     "bbox": (0.0, 1.0, 2.0, 3.0), "mixed": 1},
    {"tuple_id": 8, "x": -2.25, "label": "b", "flag": False,
     "bbox": (4.0, 5.0, 6.0, 7.0), "mixed": 1.0},
]
_GOLDEN_SPANS = [{"name": "execute", "duration_ms": 1.0}]
_GOLDEN_RESPONSE = (
    "02" + _GOLDEN_REQUEST[2:] + "00000000"
    "3ff40000000000000000000000000000020100000001000000067368617264303fe00000"
    "00000000000000295b7b226475726174696f6e5f6d73223a20312e302c20226e616d6522"
    "3a202265786563757465227d5d00000002000000060000000462626f7805030004000000"
    "00000000003ff0000000000000400000000000000040080000000000000440100000000000"
    "0040140000000000004018000000000000401c00000000000000000004666c6167040300"
    "0100000000056c6162656c03030000000001610000000162000000056d69786564000300"
    "000000013100000003312e30000000087475706c655f6964010300000000000000000700"
    "0000000000000800000001780203003ff8000000000000c002000000000000"
)

#: name -> (value, encoder, decoder, hex of the encoded message).  The
#: response covers every column representation: bbox (f64 tuple), bool,
#: str, JSON-fallback cells (the int/float ``mixed`` column), i64, f64 —
#: plus a shard timing entry and a trace trailer.
GOLDEN = {
    "request": (
        (box_request(), None),
        lambda value: columnar.encode_request(value[0]),
        columnar.decode_request,
        _GOLDEN_REQUEST + "00000000",
    ),
    "request_traced": (
        (box_request(), _TRACE_CONTEXT),
        lambda value: columnar.encode_request(value[0], trace=value[1]),
        columnar.decode_request,
        _GOLDEN_REQUEST + "000000347b2273616d706c6564223a20747275652c20227370616e5f69"
        "64223a20227331222c202274726163655f6964223a20227431227d",
    ),
    "response": (
        (
            response(_GOLDEN_OBJECTS, shard_ms={"shard0": 0.5}),
            _GOLDEN_SPANS,
        ),
        lambda value: columnar.encode_response(value[0], trace=value[1]),
        columnar.decode_response,
        _GOLDEN_RESPONSE,
    ),
    # The same rows as the engine hands them over — names + tuples — are the
    # same frame, and decode to an equal response.
    "response_batch": (
        (
            response(
                RowBatch(_GOLDEN_OBJECTS[0], [tuple(obj.values()) for obj in _GOLDEN_OBJECTS]),
                shard_ms={"shard0": 0.5},
            ),
            _GOLDEN_SPANS,
        ),
        lambda value: columnar.encode_response(value[0], trace=value[1]),
        columnar.decode_response,
        _GOLDEN_RESPONSE,
    ),
    # A batch with names and no row is the frame ``objects=[]`` always was:
    # no row, no column.
    "response_empty_batch": (
        (response(RowBatch(("tuple_id", "bbox"), [])), []),
        lambda value: columnar.encode_response(value[0]),
        columnar.decode_response,
        "02" + _GOLDEN_REQUEST[2:] + "00000000"
        "3ff40000000000000000000000000000020100000002000000067368617264303fe00000"
        "00000000000000067368617264313fe8000000000000000000000000000000000000",
    ),
    "error": (
        ("ValueError", "boom"),
        lambda value: columnar.encode_error(ValueError(value[1])),
        columnar.decode_error,
        "030000000a56616c75654572726f7200000004626f6f6d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_messages_pin_the_wire_format(name):
    value, encode, decode, golden_hex = GOLDEN[name]
    golden = bytes.fromhex(golden_hex)
    assert encode(value) == golden
    assert decode(golden) == value
