"""Unit tests for the shard wire format and the lossless-wire bugfixes.

Covers the three bugfix regressions — ``default=str`` coercion removed
from the JSON encoder, recursive canonicalisation of nested sequence
columns, and chatty peers raising
:class:`~repro.errors.ProtocolViolationError` instead of blaming a
truncated stream — plus every message kind's round-trip, the golden bytes
that freeze the format, and the typed refusals that keep it lossless.
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
        canvas_id="dots",
        layer_index=0,
        granularity="box",
        design="spatial",
        xmin=0.0,
        ymin=0.0,
        xmax=256.0,
        ymax=256.0,
    )
    fields.update(overrides)
    return DataRequest(**fields)


def tile_request(**overrides):
    fields = dict(
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

    def test_trace_context_rides_beside_the_request(self):
        request = box_request()
        context = {"trace_id": "t1", "span_id": "s1", "sampled": True}
        body = columnar.encode_request(request, trace=context)
        decoded, carried = columnar.decode_request(body)
        # The context has its own slot after the request's fields: the
        # rebuilt request (and any cache keyed on it) is the untraced one.
        assert carried == context
        assert decoded == request
        untraced = columnar.encode_request(request)
        assert body[: len(untraced) - 4] == untraced[:-4]

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
                "count": row if row % 2 else None,
                "bbox": (0.0 + row, 1.0, 2.0, 3.0),
            }
            for row in range(10)
        ]
        assert roundtrip(response(objects)) == response(objects)

    def test_scalar_fields_survive(self):
        decoded = roundtrip(response([]))
        assert decoded.query_ms == 1.25
        assert decoded.queries_issued == 2
        assert decoded.coalesced is True

    def test_nulls_roundtrip_and_missing_keys_are_refused(self):
        # The wire is dense: a NULL is a cell, a missing key is no shape the
        # engine makes.
        objects = [{"a": 1, "b": None}, {"a": None, "b": None}]
        assert roundtrip(response(objects)).objects == objects
        with pytest.raises(ProtocolError, match="dense rows only: .*keyed other than"):
            columnar.encode_response(response([{"a": 1, "b": None}, {"a": 2}, {"b": None}]))

    def test_mixed_int_float_column_is_refused(self):
        # Packing 1 and 1.0 into one numeric column would retype one of
        # them; the codec refuses the column instead.
        with pytest.raises(ProtocolError, match="'v' holds float and int values"):
            columnar.encode_response(response([{"v": 1}, {"v": 1.0}, {"v": 2}]))

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 2**80])
    def test_out_of_i64_range_integers_are_refused(self, big):
        objects = [{"big": 2**63 - 1}, {"big": -(2**63)}]
        assert roundtrip(response(objects)).objects == objects
        with pytest.raises(ProtocolError, match="'big' holds an integer outside"):
            columnar.encode_response(response([*objects, {"big": big}]))

    @pytest.mark.parametrize("column", [[True, False], [True, 1], [1, False]])
    def test_bools_are_refused_not_packed_as_ints(self, column):
        with pytest.raises(ProtocolError, match="'v' holds bool"):
            columnar.encode_response(response([{"v": cell} for cell in column]))

    @pytest.mark.parametrize(
        "cell", [((0.0, 0.0), (1.0, 0.0)), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3), ()]
    )
    def test_nested_and_ragged_tuples_are_refused(self, cell):
        with pytest.raises(ProtocolError, match="'bbox' holds a tuple that is not four floats"):
            columnar.encode_response(response([{"bbox": (0.0, 1.0, 2.0, 3.0)}, {"bbox": cell}]))

    def test_remote_spans_ride_the_message(self):
        spans = [{"name": "query", "duration_ms": 1.0}]
        body = columnar.encode_response(response([]), trace=spans)
        decoded, shipped = columnar.decode_response(body)
        assert shipped == spans
        # The spans come back beside the response, which is the untraced one.
        assert decoded == roundtrip(response([]))

    def test_decoded_payload_matches_the_json_codec_byte_for_byte(self):
        objects = [
            {"tuple_id": 7, "x": 1.5, "label": None, "bbox": (0.0, 1.0, 2.0, 3.0)},
            {"tuple_id": 8, "x": None, "label": "s", "bbox": None},
        ]
        original = response(objects)
        via_binary = roundtrip(original)
        via_json = DataResponse.from_json(original.to_json())
        assert via_binary == via_json
        assert via_binary.to_json() == via_json.to_json()

    def test_a_batch_encodes_as_its_rows_and_reading_it_builds_new_ones(self):
        tuples = [(7, 1.5, (0.0, 1.0, 2.0, 3.0), None), (8, -2.25, (4.0, 5.0, 6.0, 7.0), "b")]
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
        assert isinstance(decoded.objects, RowBatch)
        assert decoded.objects.names == ("tuple_id", "x")
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

    def test_rows_without_a_column_are_refused_on_both_sides(self):
        # The one shape whose size the bytes cannot vouch for, and no shape
        # the engine makes: the encoder refuses what the decoder would.
        assert roundtrip(response([])).objects == []
        with pytest.raises(ProtocolError, match="without a column"):
            columnar.encode_response(response([{}]))
        with pytest.raises(ProtocolError, match="without a column"):
            columnar.decode_response(self._declaring(1, 0))


class TestDecodeRefusals:
    """Bytes no encoder writes decode to a typed error, not a plausible batch."""

    _FRAME = columnar.encode_response(response([{"aa": 1, "bb": 2.5}]))
    _SECOND = _FRAME.index(b"bb")

    def test_a_repeated_column_name_is_refused(self):
        frame = self._FRAME[: self._SECOND] + b"aa" + self._FRAME[self._SECOND + 2 :]
        with pytest.raises(ProtocolError, match="repeats column 'aa'"):
            columnar.decode_response(frame)

    @pytest.mark.parametrize("tag", [0, 5, 0xFF])
    def test_an_unknown_tag_is_refused(self, tag):
        at = self._SECOND + 2
        frame = self._FRAME[:at] + bytes([tag]) + self._FRAME[at + 1 :]
        with pytest.raises(ProtocolError, match=f"unknown column type tag {tag}"):
            columnar.decode_response(frame)


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
    "0100000004646f7473000000000000000000000003626f78000000077370617469616c00"
    "000100000000000000000100000000000000000140700000000000000140700000000000"
    "00"
)
_TRACE_CONTEXT = {"trace_id": "t1", "span_id": "s1", "sampled": True}
_GOLDEN_OBJECTS = [
    {"tuple_id": 7, "x": 1.5, "label": "a", "bbox": (0.0, 1.0, 2.0, 3.0),
     "count": 3, "note": None},
    {"tuple_id": 8, "x": -2.25, "label": "b", "bbox": (4.0, 5.0, 6.0, 7.0),
     "count": None, "note": None},
]
_GOLDEN_SPANS = [{"name": "execute", "duration_ms": 1.0}]
_GOLDEN_RESPONSE = (
    "02" + _GOLDEN_REQUEST[2:] +
    "3ff400000000000000000000000000000201000000295b7b226475726174696f6e5f6d73"
    "223a20312e302c20226e616d65223a202265786563757465227d5d000000020000000600"
    "00000462626f78040000000000000000003ff00000000000004000000000000000400800"
    "0000000000401000000000000040140000000000004018000000000000401c0000000000"
    "0000000005636f756e7401020000000000000003000000056c6162656c03000000000161"
    "0000000162000000046e6f74650103000000087475706c655f6964010000000000000000"
    "070000000000000008000000017802003ff8000000000000c002000000000000"
)

#: name -> (value, encoder, decoder, hex of the encoded message).  The
#: response covers every column tag — bbox, i64, str, f64 — an i64 column
#: with a NULL (``count``), a column of NULLs only (``note``) and a trace
#: trailer.
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
        (response(_GOLDEN_OBJECTS), _GOLDEN_SPANS),
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
        "02" + _GOLDEN_REQUEST[2:] +
        "3ff400000000000000000000000000000201000000000000000000000000",
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
