"""Property suite for the binary columnar codec.

Mirrors ``test_property_protocol.py`` on the shard wire: every request and
every response shaped like the engine's output (one storage type per
column, ``None`` for NULL, every row carrying every column) must survive
the columnar codec unchanged, and — the reference law — decoding the binary
form must yield exactly what decoding the JSON form yields, so what a shard
returns over the wire is what the HTTP edge would have serialised.  The
objects block is additionally held, byte for byte and refusal for refusal,
to the cell-at-a-time reference codec, and the decoder to typed errors on
anything that is not a message.
"""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.net import columnar
from repro.minisql.executor import SQLEngine
from repro.net.protocol import DataRequest, DataResponse, RowBatch
from repro.storage.database import Database
from repro.storage.types import ColumnType

from tests.net import reference_objects_codec as reference

_BOX = DataRequest(
    canvas_id="dots", layer_index=0, granularity="box",
    xmin=0.0, ymin=0.0, xmax=256.0, ymax=256.0,
)

# -- strategies (canonical row form, like the JSON protocol suite) ---------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
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
            canvas_id=draw(_names),
            layer_index=draw(st.integers(min_value=0, max_value=7)),
            granularity="tile",
            design=draw(st.sampled_from(["spatial", "mapping"])),
            tile_id=draw(st.integers(min_value=0, max_value=10_000)),
            tile_size=draw(st.sampled_from([256, 512, 1024, 4096])),
        )
    return DataRequest(
        canvas_id=draw(_names),
        layer_index=draw(st.integers(min_value=0, max_value=7)),
        granularity="box",
        design="spatial",
        xmin=draw(_floats),
        ymin=draw(_floats),
        xmax=draw(_floats),
        ymax=draw(_floats),
    )


_any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def _bboxes(floats):
    return st.tuples(floats, floats, floats, floats)


#: What an engine column holds, one strategy per storage column type
#: (``storage/types.py``: INTEGER, FLOAT, TEXT, BBOX).  The JSON law needs
#: finite floats (NaN is not equal to itself); the reference comparison
#: takes any double.
_STORAGE_KINDS = [st.integers(-(2**63), 2**63 - 1), _floats, _text, _bboxes(_floats)]
_ANY_DOUBLE_KINDS = [st.integers(-(2**63), 2**63 - 1), _any_float, _text, _bboxes(_any_float)]

#: Bitmap byte edges, and the shapes in between.
_ROW_COUNTS = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]), st.integers(0, 20))


@st.composite
def engine_rows(draw, kinds=_STORAGE_KINDS):
    """``(names, row tuples)`` as the engine makes them: a storage type per
    column, ``None`` for NULL, every row carrying every column."""
    names = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    n_rows = draw(_ROW_COUNTS)
    columns = []
    for _ in names:
        cells = draw(st.sampled_from(kinds))
        if draw(st.booleans()):
            cells = st.one_of(cells, st.none())
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    return names, list(zip(*columns))


@st.composite
def engine_objects(draw, kinds=_STORAGE_KINDS):
    """A response's objects: the engine's batch, or its rows as dictionaries
    (decoded from JSON, or built by hand)."""
    names, rows = draw(engine_rows(kinds))
    if draw(st.booleans()):
        return RowBatch(names, rows)
    return [dict(zip(names, row)) for row in rows]


@st.composite
def responses(draw):
    return DataResponse(
        request=draw(requests()),
        objects=draw(engine_objects()),
        query_ms=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        from_cache=draw(st.booleans()),
        queries_issued=draw(st.integers(min_value=0, max_value=1000)),
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
    def test_trace_context_rides_beside_the_request(self, request, context):
        body = columnar.encode_request(request, trace=context)
        decoded, carried = columnar.decode_request(body)
        assert carried == context
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
# ``tests/net/reference_objects_codec.py`` is the same layout written a
# statement per cell.  The two must agree byte for byte on every shape the
# engine makes — not only decode to equal rows — and refuse the same shapes.


class _Level(enum.IntEnum):
    LOW = 1


class _Measured(float):
    """A ``float`` subclass, as ``numpy.float64`` is."""


#: ``(what the column otherwise holds, one cell no wire column carries)``.
_REFUSED_COLUMNS = [
    (st.integers(-5, 5), True),  # a bool beside ints
    (st.booleans(), False),  # a column of bools
    (st.integers(-5, 5), 1.5),  # a float beside ints
    (_floats, 1),  # an int beside floats
    (st.integers(-5, 5), 2**63),  # past the signed 64-bit range
    (st.integers(-5, 5), -(2**63) - 1),
    (st.integers(-5, 5), _Level.LOW),  # an int subclass
    (_floats, _Measured(0.5)),  # a float subclass
    (_bboxes(_floats), (0.0, 1.0, 2.0)),  # a ragged tuple
    (_bboxes(_floats), (0.0, 1.0, 2.0, 3.0, 4.0)),
    (_bboxes(_floats), (0.0, 1.0, 2.0, 3)),  # not four floats
    (_bboxes(_floats), ((0.0, 1.0), (2.0, 3.0))),  # nested
    (_text, ("a", "b")),
    (_text, b"raw"),
]


@st.composite
def refused_objects(draw):
    """Engine-shaped rows with one shape the wire refuses planted in them."""
    names, rows = draw(engine_rows())
    rows = [dict(zip(names, row)) for row in rows]
    while len(rows) < 2:  # one row alone cannot be ragged
        rows.append(dict.fromkeys(names))
    row = draw(st.integers(0, len(rows) - 1))
    shape = draw(st.sampled_from(["column", "missing key", "extra key", "no column"]))
    if shape == "column":
        cells, offender = draw(st.sampled_from(_REFUSED_COLUMNS))
        name = draw(_names.filter(lambda name: name not in names))
        for obj in rows:
            obj[name] = draw(st.one_of(cells, st.none()))
        # Beside at least one other non-null cell: alone, 1.5 or 1 is a column.
        rows[(row + 1) % len(rows)][name] = draw(cells)
        rows[row][name] = offender
    elif shape == "missing key":
        del rows[row][draw(st.sampled_from(names))]
    elif shape == "extra key":
        rows[row][draw(_names.filter(lambda name: name not in names))] = None
    else:
        rows = [{} for _ in rows]
    return RowBatch(rows[0], [tuple(obj.values()) for obj in rows]) if (
        shape == "column" and draw(st.booleans())
    ) else rows


def _block(encode, objects) -> bytes:
    out = bytearray()
    encode(out, objects)
    return bytes(out)


def _rows(decode, block: bytes):
    reader = columnar._Reader(block)
    objects = decode(reader)
    reader.expect_end()
    # repr, not ==: it tells 1 from 1.0, keeps key order, and holds NaN
    # equal to itself.
    return repr(objects)


class TestObjectsBlockAgainstReference:
    @given(engine_objects(_ANY_DOUBLE_KINDS))
    @settings(max_examples=300, deadline=None)
    def test_bytes_and_rows_equal_the_reference(self, objects):
        block = _block(columnar._encode_objects, objects)
        assert block == _block(reference._encode_objects, objects)
        assert _rows(columnar._decode_objects, block) == _rows(
            reference._decode_objects, block
        )

    @given(refused_objects())
    @settings(max_examples=300, deadline=None)
    def test_every_refused_shape_fails_typed_alike(self, objects):
        for encode in (columnar._encode_objects, reference._encode_objects):
            with pytest.raises(ProtocolError):
                encode(bytearray(), objects)
        with pytest.raises(ProtocolError):
            columnar.encode_response(DataResponse(request=_BOX, objects=objects))

    @pytest.mark.parametrize("cell", [{1, 2}, object(), 1 + 2j, b"raw", True, 2**64])
    def test_unencodable_cells_fail_alike(self, cell):
        for encode in (columnar._encode_objects, reference._encode_objects):
            with pytest.raises(ProtocolError, match="'v' holds .*no lossless wire encoding"):
                encode(bytearray(), [{"v": 1.5}, {"v": cell}])


# -- an engine batch against its untyped twin -------------------------------------
#
# The engine's batch carries each stored column's type, and the encoder takes
# the column's tag from it instead of inspecting the cells.  Storage decodes
# exact ints, floats, strs, 4-float tuples or None for those types, so the
# frame is the one the untyped batch -- the same rows, cells inspected -- gives.

_STORED_VALUES = {
    ColumnType.INTEGER: st.integers(-(2**63), 2**63 - 1),
    ColumnType.FLOAT: _any_float,
    ColumnType.TEXT: _text,
    ColumnType.BBOX: st.tuples(_floats, _floats, _floats, _floats).map(
        lambda box: (min(box[0], box[2]), min(box[1], box[3]), max(box[0], box[2]), max(box[1], box[3]))
    ),
}


@st.composite
def stored_tables(draw):
    """A loaded table: random storage types, NULLs, a column of NULLs only
    or not, and zero rows or several."""
    types = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5))
    all_null = draw(st.none() | st.integers(0, len(types) - 1))
    n_rows = draw(_ROW_COUNTS)
    database = Database()
    table = database.create_table("t", [(f"c{i}", t.value) for i, t in enumerate(types)])
    cells = [
        st.none() if i == all_null else st.one_of(st.none(), _STORED_VALUES[t])
        for i, t in enumerate(types)
    ]
    table.bulk_load(draw(st.lists(st.tuples(*cells), min_size=n_rows, max_size=n_rows)))
    return database, types


def _frame_or_refusal(objects) -> bytes | str:
    try:
        return columnar.encode_response(DataResponse(request=_BOX, objects=objects))
    except ProtocolError as error:
        return f"refused: {error}"


#: Hand-built objects and the refusal each met before batches carried types.
_HAND_BUILT_REFUSALS = {
    "bool": (
        RowBatch(["v"], [(True,), (None,)]),
        "column 'v' holds bool values: it has no lossless wire encoding",
    ),
    "mixed": (
        RowBatch(["v"], [(1,), (1.0,)]),
        "column 'v' holds float and int values: it has no lossless wire encoding",
    ),
    "wide int": (
        RowBatch(["v"], [(2**63,)]),
        "column 'v' holds an integer outside the signed 64-bit range: it has no lossless wire encoding",
    ),
    "short tuple": (
        RowBatch(["v"], [((1.0, 2.0, 3.0),)]),
        "column 'v' holds a tuple that is not four floats: it has no lossless wire encoding",
    ),
    "int tuple": (
        [{"v": (1, 2, 3, 4)}],
        "column 'v' holds a tuple that is not four floats: it has no lossless wire encoding",
    ),
    "other": (
        RowBatch(["v"], [(b"raw",)]),
        "column 'v' holds bytes values: it has no lossless wire encoding",
    ),
    "no column": (RowBatch([], [(), ()]), "2 rows without a column have no wire encoding"),
    "ragged": (
        [{"a": 1}, {"b": 2}],
        "the wire carries dense rows only: parts answered with rows keyed other than ('a',)",
    ),
    "repeated": (
        RowBatch(["a", "a"], [(1, 2)]),
        "rows do not match their distinct column names ('a', 'a')",
    ),
}


class TestEngineBatchAgainstItsUntypedTwin:
    @given(stored_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_typed_batch_is_the_frame_its_untyped_twin_is(self, stored, data):
        database, types = stored
        last = f"c{len(types) - 1}"
        statements = [
            "SELECT * FROM t",
            "SELECT * FROM t WHERE c0 IS NULL",
            "SELECT * FROM t WHERE c0 IS NOT NULL AND c0 IS NULL",  # no row
            f"SELECT {last}, c0 AS renamed FROM t",
            f"SELECT c0, {last} IS NULL AS computed FROM t",
        ]
        engine = SQLEngine(database)
        for sql in statements:
            result = engine.execute(sql)
            typed = RowBatch(result.columns, result.rows, result.types)
            untyped = RowBatch(result.columns, result.rows)
            assert untyped.types == ()
            assert len(typed.types) == len(typed.names)
            frame = _frame_or_refusal(typed)
            assert frame == _frame_or_refusal(untyped)
            if sql == "SELECT * FROM t":
                assert list(typed.types) == types
                assert isinstance(frame, bytes)  # stored values always encode
            if isinstance(frame, bytes):
                decoded, _ = columnar.decode_response(frame)
                assert repr(decoded.objects) == repr(untyped)

    def test_only_stored_columns_are_typed(self):
        database = Database()
        database.create_table("t", [("id", "integer"), ("box", "bbox")]).bulk_load(
            [(1, (0.0, 0.0, 1.0, 1.0))]
        )
        result = SQLEngine(database).execute("SELECT box, id AS key, id + 1 AS next FROM t")
        assert result.types == (ColumnType.BBOX, ColumnType.INTEGER, None)

    @pytest.mark.parametrize("name", sorted(_HAND_BUILT_REFUSALS))
    def test_a_hand_built_batch_has_no_types_and_is_refused_as_before(self, name):
        objects, message = _HAND_BUILT_REFUSALS[name]
        if isinstance(objects, RowBatch):
            assert objects.types == ()
        with pytest.raises(ProtocolError) as refused:
            columnar.encode_response(DataResponse(request=_BOX, objects=objects))
        assert str(refused.value) == message


# -- a batch against the same rows as dictionaries --------------------------------
#
# Below the edge a response's objects are a ``RowBatch`` — names + the engine's
# row tuples — which the encoder transposes instead of gathering key by key.
# Same rows, same frame: the wire cannot tell which form it was given.


class TestBatchAgainstItsRowsAsDicts:
    @given(engine_rows(_ANY_DOUBLE_KINDS))
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
        assert all(len(row) == len(decoded.objects.names) for row in decoded.objects.rows)
        assert columnar.encode_response(decoded) == frame
        # Reading the rows leaves the batch as it was, and the frame the frame.
        assert repr(list(batch)) == repr(as_dicts) == repr(batch.to_dicts())
        assert batch.rows == list(tuples)
        assert columnar.encode_response(DataResponse(request=_BOX, objects=batch)) == frame

    @given(engine_rows())
    @settings(max_examples=200, deadline=None)
    def test_a_decoded_batch_matches_the_json_codec(self, dense):
        names, tuples = dense
        response = DataResponse(request=_BOX, objects=RowBatch(names, list(tuples)))
        via_binary, _ = columnar.decode_response(columnar.encode_response(response))
        via_json = DataResponse.from_json(response.to_json())
        assert via_binary == via_json == response
        assert via_binary.to_json() == via_json.to_json()


#: Valid messages covering every column representation, with and without NULLs.
_HOSTILE_SEEDS = [
    [],
    [{"tuple_id": row, "x": row * 0.5, "bbox": (0.0, 1.0, 2.0, float(row))} for row in range(9)],
    [{"a": 1, "b": None, "c": "text"}, {"a": None, "b": None, "c": None}, {"a": 2, "b": None, "c": ""}],
    [{"s": "é", "v": 2.5, "bbox": None}, {"s": "", "v": None, "bbox": (0.0, 0.0, 1.0, 1.0)}],
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
                try:
                    expected = _rows(reference._decode_objects, bytes(flipped[start:]))
                except ProtocolError:
                    expected = ProtocolError
                assert got == expected


_TILE = DataRequest(
    canvas_id="dots", layer_index=1, granularity="tile",
    design="mapping", tile_id=42, tile_size=1024,
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
