"""Property suite for the binary columnar codec.

Mirrors ``test_property_protocol.py`` on the shard wire: every request and
response the reference JSON encoding can carry must survive the columnar
codec unchanged, and — the reference law — decoding the binary form must
yield exactly what decoding the JSON form yields, so what a shard returns
over the wire is what the HTTP edge would have serialised.  The objects
block is additionally held, byte for byte, to the cell-at-a-time codec it
replaced, and the decoder to typed errors on anything that is not a message.
"""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse, RowBatch

from tests.net import reference_objects_codec as reference

_BOX = DataRequest(
    app_name="dots", canvas_id="dots", layer_index=0, granularity="box",
    xmin=0.0, ymin=0.0, xmax=256.0, ymax=256.0,
)

# -- strategies (canonical row form, like the JSON protocol suite) ---------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_shard_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=63))
_traces = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {"trace_id": _names, "span_id": _names, "sampled": st.booleans()}
    ),
)


@st.composite
def requests(draw):
    if draw(st.booleans()):
        return DataRequest(
            app_name=draw(_names),
            canvas_id=draw(_names),
            layer_index=draw(st.integers(min_value=0, max_value=7)),
            granularity="tile",
            design=draw(st.sampled_from(["spatial", "mapping"])),
            tile_id=draw(st.integers(min_value=0, max_value=10_000)),
            tile_size=draw(st.sampled_from([256, 512, 1024, 4096])),
            shard_id=draw(_shard_ids),
        )
    return DataRequest(
        app_name=draw(_names),
        canvas_id=draw(_names),
        layer_index=draw(st.integers(min_value=0, max_value=7)),
        granularity="box",
        design="spatial",
        xmin=draw(_floats),
        ymin=draw(_floats),
        xmax=draw(_floats),
        ymax=draw(_floats),
        shard_id=draw(_shard_ids),
    )


# Scalars include integers *beyond* the i64 range (the JSON-cell fallback)
# and both int and float so mixed columns exercise the retype guard.
_scalar = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    _floats,
    _names,
    st.booleans(),
    st.none(),
)
_bbox = st.tuples(_floats, _floats, _floats, _floats)
_nested = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, min_size=0, max_size=3).map(tuple),
    max_leaves=6,
)
_value = st.one_of(_scalar, _bbox, _nested)
_objects = st.lists(
    st.dictionaries(_names, _value, min_size=0, max_size=5), min_size=0, max_size=6
)


@st.composite
def responses(draw):
    return DataResponse(
        request=draw(requests()),
        objects=draw(_objects),
        query_ms=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        from_cache=draw(st.booleans()),
        queries_issued=draw(st.integers(min_value=0, max_value=1000)),
        shard_ms=draw(
            st.dictionaries(
                st.from_regex(r"shard[0-9]{1,2}", fullmatch=True),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                max_size=8,
            )
        ),
        coalesced=draw(st.booleans()),
    )


# -- properties -------------------------------------------------------------------


class TestBinaryRequestRoundTrip:
    @given(requests())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_identity(self, request):
        decoded, context = columnar.decode_request(columnar.encode_request(request))
        assert decoded == request
        assert context is None

    @given(requests())
    @settings(max_examples=100, deadline=None)
    def test_cache_key_stable_across_the_wire(self, request):
        decoded, _ = columnar.decode_request(columnar.encode_request(request))
        assert decoded.cache_key() == request.cache_key()

    @given(requests(), _traces)
    @settings(max_examples=100, deadline=None)
    def test_trace_context_rides_the_wire_form_only(self, request, context):
        body = columnar.encode_request(request, trace=context)
        decoded, popped = columnar.decode_request(body)
        assert popped == context
        assert decoded.trace is None
        assert decoded == request


class TestBinaryResponseRoundTrip:
    @given(responses())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_identity(self, response):
        decoded, spans = columnar.decode_response(columnar.encode_response(response))
        assert spans == []
        assert decoded == response

    @given(responses())
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, response):
        once = columnar.encode_response(response)
        decoded, _ = columnar.decode_response(once)
        assert columnar.encode_response(decoded) == once

    @given(responses())
    @settings(max_examples=150, deadline=None)
    def test_decoded_payload_matches_the_json_codec(self, response):
        # The reference law: both encodings decode to the same object,
        # and re-encoding both decodes to the same canonical JSON bytes.
        via_binary, _ = columnar.decode_response(columnar.encode_response(response))
        via_json = DataResponse.from_json(response.to_json())
        assert via_binary == via_json
        assert via_binary.to_json() == via_json.to_json()

    @given(responses())
    @settings(max_examples=50, deadline=None)
    def test_nan_free_wide_numeric_responses_shrink(self, response):
        # Not a universal law (tiny/stringy payloads can tie or lose), but
        # homogeneous numeric rows — the serving hot path — must shrink.
        objects = [
            {"tuple_id": row, "x": row * 0.5, "bbox": (0.0, 1.0, 2.0, 3.0)}
            for row in range(64)
        ]
        wide = DataResponse(request=response.request, objects=objects)
        assert len(columnar.encode_response(wide)) < len(wide.to_json().encode())


# -- the objects block against its reference implementation ---------------------
#
# ``tests/net/reference_objects_codec.py`` is the codec as it stood before it
# packed whole columns: a statement per cell.  The wire did not change, so
# the two must agree byte for byte on everything either can be given — not
# only decode to equal rows.


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


class _Measured(float):
    """A ``float`` subclass, as ``numpy.float64`` is."""


_ABSENT = object()
_any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _float_tuples(sizes):
    return sizes.flatmap(
        lambda size: st.lists(_any_float, min_size=size, max_size=size).map(tuple)
    )


#: One strategy per kind of column: what the cells of a column are drawn from.
_COLUMN_KINDS = [
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-(2**70), max_value=2**70),  # beyond i64: JSON cells
    _any_float,
    _names,
    st.booleans(),
    st.one_of(st.booleans(), st.integers(-5, 5)),  # bool beside int
    st.one_of(st.integers(-5, 5), _any_float),  # mixed int / float
    st.sampled_from(list(_Level)),
    st.one_of(st.sampled_from(list(_Level)), st.integers(-5, 5)),
    _any_float.map(_Measured),
    st.one_of(_any_float, _any_float.map(_Measured)),
    _float_tuples(st.just(4)),  # a bbox column: one length throughout
    _float_tuples(st.sampled_from([0, 1, 4, 255])),  # ragged, still typed
    _float_tuples(st.sampled_from([0, 4, 256])),  # 256 floats have no length byte
    st.tuples(_any_float, _any_float.map(_Measured)),
    st.tuples(_any_float, st.integers(0, 3)),  # not all floats: JSON cells
    st.none(),
    _nested,
]

#: Bitmap byte edges, and the shapes in between.
_ROW_COUNTS = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]), st.integers(0, 20))


@st.composite
def column_shaped_objects(draw):
    """Rows assembled from per-column draws, so typed columns actually occur."""
    n_rows = draw(_ROW_COUNTS)
    rows = [{} for _ in range(n_rows)]
    for name in draw(st.lists(_names, max_size=4, unique=True)):
        cells = draw(st.sampled_from(_COLUMN_KINDS))
        holes = draw(st.sampled_from([(), (None,), (_ABSENT,), (None, _ABSENT)]))
        if holes:
            cells = st.one_of(cells, st.sampled_from(holes))
        for row, cell in zip(rows, draw(st.lists(cells, min_size=n_rows, max_size=n_rows))):
            if cell is not _ABSENT:
                row[name] = cell
    return rows


def _block(encode, objects) -> bytes:
    out = bytearray()
    encode(out, objects)
    return bytes(out)


def _rows(decode, block: bytes):
    reader = columnar._Reader(block)
    objects = decode(reader)
    reader.expect_end()
    # repr, not ==: it tells 1 from 1.0 from True, keeps key order, and
    # holds NaN equal to itself.
    return repr(objects)


class TestObjectsBlockAgainstReference:
    @given(st.one_of(column_shaped_objects(), _objects))
    @settings(max_examples=300, deadline=None)
    def test_bytes_and_rows_equal_the_reference(self, objects):
        block = _block(columnar._encode_objects, objects)
        assert block == _block(reference._encode_objects, objects)
        assert _rows(columnar._decode_objects, block) == _rows(
            reference._decode_objects, block
        )

    @pytest.mark.parametrize("cell", [{1, 2}, object(), 1 + 2j, b"raw"])
    def test_unencodable_cells_fail_alike(self, cell):
        for encode in (columnar._encode_objects, reference._encode_objects):
            with pytest.raises(ProtocolError, match="no lossless wire encoding"):
                encode(bytearray(), [{"v": 1.5}, {"v": cell}])


# -- a batch against the same rows as dictionaries --------------------------------
#
# Below the edge a response's objects are a ``RowBatch`` — names + the engine's
# row tuples — which the encoder transposes instead of gathering key by key.
# Same rows, same frame: the wire cannot tell which form it was given.


@st.composite
def dense_rows(draw, kinds):
    """``(names, row tuples)``: every row carries every column (``None`` allowed)."""
    names = draw(st.lists(_names, max_size=4, unique=True))
    n_rows = draw(_ROW_COUNTS)
    columns = []
    for _ in names:
        cells = draw(st.sampled_from(kinds))
        if draw(st.booleans()):
            cells = st.one_of(cells, st.none())
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    return names, list(zip(*columns)) if names else [()] * n_rows


class TestBatchAgainstItsRowsAsDicts:
    @given(dense_rows(_COLUMN_KINDS))
    @settings(max_examples=300, deadline=None)
    def test_a_batch_is_the_frame_its_rows_are(self, dense):
        names, tuples = dense
        batch = RowBatch(names, list(tuples))
        as_dicts = [dict(zip(names, row)) for row in tuples]
        frame = columnar.encode_response(DataResponse(request=_BOX, objects=batch))
        assert frame == columnar.encode_response(DataResponse(request=_BOX, objects=as_dicts))
        decoded, _ = columnar.decode_response(frame)
        assert isinstance(decoded.objects, RowBatch)
        assert all(type(row) is tuple for row in decoded.objects.rows)
        assert columnar.encode_response(decoded) == frame
        # Reading the rows leaves the batch as it was, and the frame the frame.
        assert repr(list(batch)) == repr(as_dicts) == repr(batch.to_dicts())
        assert batch.rows == list(tuples)
        assert columnar.encode_response(DataResponse(request=_BOX, objects=batch)) == frame

    @given(dense_rows([_scalar, _bbox, _nested, st.one_of(st.integers(-5, 5), _floats)]))
    @settings(max_examples=200, deadline=None)
    def test_a_decoded_batch_matches_the_json_codec(self, dense):
        names, tuples = dense
        response = DataResponse(request=_BOX, objects=RowBatch(names, list(tuples)))
        via_binary, _ = columnar.decode_response(columnar.encode_response(response))
        via_json = DataResponse.from_json(response.to_json())
        assert via_binary == via_json == response
        assert via_binary.to_json() == via_json.to_json()


#: Valid messages covering every column representation, sparse and dense.
_HOSTILE_SEEDS = [
    [],
    [{}, {}],
    [{"tuple_id": row, "x": row * 0.5, "bbox": (0.0, 1.0, 2.0, float(row))} for row in range(9)],
    [{"a": 1, "b": None}, {"a": 2}, {"b": None, "c": "text"}, {}],
    [{"s": "é", "flag": True, "big": 2**80}, {"s": "", "flag": False, "big": 1}],
    [{"bbox": ()}, {"bbox": (1.0,)}, {"bbox": (1.0, 2.0), "nested": ((1, 2), "x")}],
]


class TestHostileBytes:
    @pytest.mark.parametrize("objects", _HOSTILE_SEEDS)
    def test_every_strict_prefix_is_a_typed_error(self, objects):
        message = columnar.encode_response(DataResponse(request=_BOX, objects=objects))
        for cut in range(len(message)):
            with pytest.raises(ProtocolError):
                columnar.decode_response(message[:cut])

    @pytest.mark.parametrize("objects", _HOSTILE_SEEDS)
    def test_every_byte_flip_decodes_as_ever_or_is_a_typed_error(self, objects):
        message = columnar.encode_response(DataResponse(request=_BOX, objects=objects))
        start = len(message) - len(_block(columnar._encode_objects, objects))
        for index in range(start, len(message)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(message)
                flipped[index] ^= mask
                try:
                    decoded, _ = columnar.decode_response(bytes(flipped))
                    got = repr(decoded.objects)
                except ProtocolError:
                    got = ProtocolError
                block = bytes(flipped[start:])
                if int.from_bytes(block[:4], "big") > columnar.MAX_EMPTY_ROWS:
                    # Nothing this short carries that many rows — and the
                    # reference would allocate them before finding out.
                    assert got is ProtocolError
                    continue
                try:
                    expected = _rows(reference._decode_objects, block)
                except ProtocolError:
                    expected = ProtocolError
                assert got == expected


_TILE = DataRequest(
    app_name="dots", canvas_id="dots", layer_index=1, granularity="tile",
    design="mapping", tile_id=42, tile_size=1024, shard_id=3,
)
_TRACE = {"trace_id": "t1", "span_id": "s1", "sampled": True}

#: One message of each other kind a shard exchanges: a request (box and
#: tile, with and without a trace context) and an error.
_HOSTILE_MESSAGES = {
    "request-box": (columnar.encode_request(_BOX), columnar.decode_request),
    "request-box-traced": (
        columnar.encode_request(_BOX, trace=_TRACE), columnar.decode_request
    ),
    "request-tile": (columnar.encode_request(_TILE), columnar.decode_request),
    "request-tile-traced": (
        columnar.encode_request(_TILE, trace=_TRACE), columnar.decode_request
    ),
    "error": (columnar.encode_error(ValueError("boom — é")), columnar.decode_error),
}


class TestHostileMessages:
    @pytest.mark.parametrize("name", sorted(_HOSTILE_MESSAGES))
    def test_every_strict_prefix_is_a_typed_error(self, name):
        message, decode = _HOSTILE_MESSAGES[name]
        for cut in range(len(message)):
            with pytest.raises(ProtocolError):
                decode(message[:cut])

    @pytest.mark.parametrize("name", sorted(_HOSTILE_MESSAGES))
    def test_every_byte_flip_decodes_or_is_a_typed_error(self, name):
        message, decode = _HOSTILE_MESSAGES[name]
        for index in range(len(message)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(message)
                flipped[index] ^= mask
                try:
                    decode(bytes(flipped))
                except ProtocolError:
                    pass
