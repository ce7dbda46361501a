"""The shard wire: one binary message format for every shard conversation.

Everything that crosses a shard boundary — between the router's
:class:`~repro.serving.transport.RemoteBackendStub` and a
:class:`~repro.serving.transport.LocalTransport`, in process or over a
worker's socket — is one message of this module.  JSON survives only at
the HTTP edge (:mod:`repro.server.http_server`) and as the reference
encoding the parity suites compare this codec against.  Responses lay
their objects out as **typed columns** (int / float / str / tuple-of-float
bbox) instead of repeating every column name and textual value per row.

Messages
--------
The length-prefixed transport (:mod:`repro.net.socket_transport`) frames
the bytes; a frame's payload is exactly one message, and its first byte
selects the kind:

* ``MSG_REQUEST`` — a packed :class:`~repro.net.protocol.DataRequest`
  (the ``handle`` hot path: the region of one layer), then the caller's
  trace context (a JSON blob, empty when untraced).
* ``MSG_RESPONSE`` — a packed :class:`~repro.net.protocol.DataResponse`:
  its request, the scalar fields, the spans recorded on the far side (a
  JSON blob, empty when untraced), and the objects as a columnar block.

The trace slots are not fields of either object: ``encode_request(trace=)``
and ``encode_response(trace=)`` fill them, and the decoders return them
beside the object they rebuild, so a request or response is the same
whether or not anyone traced it.
* ``MSG_ERROR`` — an exception type name and message; the stub re-raises
  it as a :class:`~repro.serving.transport.TransportError`.

There is no other kind: ``handle`` is the one operation a shard serves
(canvas metadata is a function of the compiled plan, which never crosses
the wire).  An unknown kind byte, a truncated body or trailing bytes raise
a typed :class:`~repro.errors.ProtocolError` — a garbled frame never
decodes to a plausible value.

The objects block carries what storage holds: the rows of one placement
table, every row with every column (a NULL is ``None``).  It stores the
row and column counts, then per column, in name order: the name, a
one-byte type tag, a null bitmap, and the packed non-null values in row
order.  There are four tags, one per storage column type
(:mod:`repro.storage.types`): ``COL_I64`` (signed 64-bit integers),
``COL_F64`` (doubles), ``COL_STR`` (length-prefixed UTF-8) and
``COL_BBOX`` (four doubles per row, no length byte).  A column's tag is
the one type of its non-null cells; a column of NULLs only is
``COL_I64`` and carries no value.  A column of an engine batch carries
its storage type (:attr:`~repro.net.protocol.RowBatch.types`), and its
tag is that type's: storage decodes nothing else, so no cell is
inspected but for ``None``, and the bytes are those an inspection
gives.  A decoded payload equals its JSON-decoded twin:
``decode(encode(r)) == DataResponse.from_json(r.to_json())``.

Anything else in an untyped column is refused with a typed
:class:`~repro.errors.ProtocolError` naming the column, never packed
lossily or retyped: a ``bool``, a column mixing types (``1`` beside
``1.0``), an integer outside the signed 64-bit range, a tuple that is not
four floats, any other value, and a list of dictionaries whose rows carry
different keys.  The decoder refuses a
repeated column name, rows without a column and an unknown tag.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from itertools import chain, repeat, starmap
from typing import Any

from ..errors import FetchError, ProtocolError
from ..storage.types import ColumnType
from .protocol import DataRequest, DataResponse, RowBatch, _reject_unencodable, concat_rows

__all__ = [
    "MSG_ERROR",
    "MSG_REQUEST",
    "MSG_RESPONSE",
    "decode_error",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_response",
    "message_kind",
]

#: Message kinds (the first byte of every frame payload).
MSG_REQUEST = 1
MSG_RESPONSE = 2
MSG_ERROR = 3

#: Column type tags of the columnar block: one per storage column type.
COL_I64 = 1
COL_F64 = 2
COL_STR = 3
COL_BBOX = 4

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_BBOX = struct.Struct(">4d")

#: The tag of each storage column type: the one type storage decodes for it.
_STORED_TAGS = {
    ColumnType.INTEGER: COL_I64,
    ColumnType.FLOAT: COL_F64,
    ColumnType.TEXT: COL_STR,
    ColumnType.BBOX: COL_BBOX,
}

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Primitive writers / reader
# ---------------------------------------------------------------------------


def _w_text(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _w_opt_i64(out: bytearray, value: int | None) -> None:
    if value is None:
        out += b"\x00"
    else:
        out += b"\x01"
        out += _I64.pack(value)


def _w_opt_f64(out: bytearray, value: float | None) -> None:
    if value is None:
        out += b"\x00"
    else:
        out += b"\x01"
        out += _F64.pack(value)


def _w_json_or_none(out: bytearray, value: Any) -> None:
    """A JSON blob, with zero length meaning ``None`` / empty."""
    if not value:
        out += _U32.pack(0)
        return
    _w_text(out, json.dumps(value, sort_keys=True, default=_reject_unencodable))


class _Reader:
    """A bounds-checked cursor over one binary message body."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def require(self, size: int) -> None:
        """Raise unless ``size`` more bytes follow the cursor."""
        if size < 0 or self._offset + size > len(self._data):
            raise ProtocolError(
                f"binary message truncated: needed {size} byte(s) at "
                f"offset {self._offset} of {len(self._data)}"
            )

    def raw(self, size: int) -> bytes:
        self.require(size)
        chunk = self._data[self._offset : self._offset + size]
        self._offset += size
        return chunk

    def u8(self) -> int:
        return self.raw(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.raw(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self.raw(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.raw(8))[0]

    def text(self) -> str:
        data = self.raw(self.u32())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"binary message holds invalid UTF-8: {error}") from error

    def opt_i64(self) -> int | None:
        return self.i64() if self.u8() else None

    def opt_f64(self) -> float | None:
        return self.f64() if self.u8() else None

    def json_or_none(self) -> Any:
        text = self.text()
        if not text:
            return None
        try:
            return json.loads(text)
        except ValueError as error:
            raise ProtocolError(f"binary message holds invalid JSON: {error}") from error

    def expect_end(self) -> None:
        if self._offset != len(self._data):
            raise ProtocolError(
                f"binary message has {len(self._data) - self._offset} "
                "trailing byte(s)"
            )


def _open(body: bytes, kind: int, name: str) -> _Reader:
    """A reader positioned after the kind byte, which must be ``kind``."""
    reader = _Reader(body)
    got = reader.u8()
    if got != kind:
        raise ProtocolError(f"expected {name} message, got kind {got}")
    return reader


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def _pack_request(out: bytearray, request: DataRequest) -> None:
    """Pack every :class:`DataRequest` field, wire order."""
    _w_text(out, request.canvas_id)
    out += _I64.pack(request.layer_index)
    _w_text(out, request.granularity)
    _w_text(out, request.design)
    _w_opt_i64(out, request.tile_id)
    _w_opt_i64(out, request.tile_size)
    _w_opt_f64(out, request.xmin)
    _w_opt_f64(out, request.ymin)
    _w_opt_f64(out, request.xmax)
    _w_opt_f64(out, request.ymax)


def _unpack_request(reader: _Reader) -> DataRequest:
    """The inverse of :func:`_pack_request`: every field, same order."""
    return DataRequest(
        canvas_id=reader.text(),
        layer_index=reader.i64(),
        granularity=reader.text(),
        design=reader.text(),
        tile_id=reader.opt_i64(),
        tile_size=reader.opt_i64(),
        xmin=reader.opt_f64(),
        ymin=reader.opt_f64(),
        xmax=reader.opt_f64(),
        ymax=reader.opt_f64(),
    )


def encode_request(
    request: DataRequest, *, trace: dict[str, Any] | None = None
) -> bytes:
    """Encode one ``handle`` request, and the caller's trace context, as a ``MSG_REQUEST`` message."""
    out = bytearray()
    out += _U8.pack(MSG_REQUEST)
    _pack_request(out, request)
    _w_json_or_none(out, trace)
    return bytes(out)


def decode_request(body: bytes) -> tuple[DataRequest, dict[str, Any] | None]:
    """Decode a request body into ``(request, trace_context)``."""
    reader = _open(body, MSG_REQUEST, "a request")
    request = _unpack_request(reader)
    context = reader.json_or_none()
    reader.expect_end()
    return request, context


# ---------------------------------------------------------------------------
# The columnar objects block
# ---------------------------------------------------------------------------
# A column travels whole — cells gathered in one pass, the null bitmap one
# integer, the values one ``struct`` call, rows zipped back once — so no
# statement runs per cell unless the column has nulls.  A :class:`RowBatch`
# is transposed, rows to columns going out and back coming in: no row dict,
# and columns only in here.


_NONE_TYPE = type(None)
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bitmap(flags: list[bool], size: int) -> bytes:
    """One bit per row, row 0 first: bit ``row`` of a little-endian integer
    *is* byte ``row >> 3``, bit ``row & 7`` — the layout the wire always had."""
    return int(bytes(flags).translate(_BIT_DIGITS)[::-1], 2).to_bytes(size, "little")


def _split_nulls(values: list[Any] | tuple[Any, ...], size: int) -> tuple[bytes, list[Any]]:
    """The null bitmap of ``values`` and their non-null cells, in row order."""
    return _bitmap([cell is None for cell in values], size), [cell for cell in values if cell is not None]


def _column_tag(name: str, kinds: set[type], values: list[Any] | tuple[Any, ...]) -> int:
    """The tag of one column from ``kinds``, the set of its non-null cells' types.

    One exact builtin type, the storage's, or a typed refusal naming the column.
    """
    if not kinds:
        return COL_I64  # NULLs only: no value follows, any tag would do
    if kinds == {float}:
        return COL_F64
    if kinds == {str}:
        return COL_STR
    if kinds == {int}:
        if _I64_MIN <= min(values) and max(values) <= _I64_MAX:
            return COL_I64
        held = "an integer outside the signed 64-bit range"
    elif kinds == {tuple}:
        if set(map(len, values)) == {4} and set(map(type, chain.from_iterable(values))) == {float}:
            return COL_BBOX
        held = "a tuple that is not four floats"
    else:
        held = " and ".join(sorted(kind.__name__ for kind in kinds)) + " values"
    raise ProtocolError(f"column {name!r} holds {held}: it has no lossless wire encoding")


def _encode_objects(out: bytearray, objects: RowBatch | list[dict[str, Any]]) -> None:
    n_rows = len(objects)
    try:  # decoded from JSON or built by hand: laid out as the gather does it
        batch = concat_rows([objects])
    except FetchError as error:
        raise ProtocolError(f"the wire carries dense rows only: {error}") from error
    names, columns = batch.names, list(zip(*batch.rows))
    if not n_rows:
        names = ()  # no row, no column: an empty batch is the frame ``[]`` always was
    elif not names:
        raise ProtocolError(f"{n_rows} rows without a column have no wire encoding")
    elif len(columns) != len(names) or len(set(names)) != len(names):
        raise ProtocolError(f"rows do not match their distinct column names {names}")
    out += _U32.pack(n_rows)
    out += _U32.pack(len(names))
    bitmap_size = (n_rows + 7) // 8
    no_row = bytes(bitmap_size)
    types = batch.types if len(batch.types) == len(names) else repeat(None)
    # Names are distinct: no column, and no type, is compared.
    for name, values, stored in sorted(zip(names, columns, types)):
        _w_text(out, name)
        nulls, tag = no_row, _STORED_TAGS.get(stored)
        if tag is None:  # not a stored column: its cells' types decide, or refuse
            kinds = set(map(type, values))
            if _NONE_TYPE in kinds:
                nulls, values = _split_nulls(values, bitmap_size)
                kinds.discard(_NONE_TYPE)
            tag = _column_tag(name, kinds, values)
        elif None in values:
            nulls, values = _split_nulls(values, bitmap_size)
            if not values:
                tag = COL_I64  # NULLs only: the tag an inspection gives them
        out += _U8.pack(tag)
        out += nulls
        if tag == COL_I64:
            out += struct.pack(f">{len(values)}q", *values)
        elif tag == COL_F64:
            out += struct.pack(f">{len(values)}d", *values)
        elif tag == COL_STR:
            texts = list(map(str.encode, values))
            sizes = map(_U32.pack, map(len, texts))
            out += b"".join(chain.from_iterable(zip(sizes, texts)))
        else:
            # Consumed row by row: joining them first holds every packed
            # row at once, the widest moment of a whole step (+80 kB).
            deque(map(out.extend, starmap(_BBOX.pack, values)), 0)


def _decode_objects(reader: _Reader) -> RowBatch:
    n_rows = reader.u32()
    n_cols = reader.u32()
    if n_rows and not n_cols:
        raise ProtocolError(f"binary message declares {n_rows} rows without a column")
    bitmap_size = (n_rows + 7) // 8
    # The declared shape is checked against the bytes that are left before
    # anything is sized by it: a short frame cannot ask for a long answer.
    reader.require(n_cols * (4 + 1 + bitmap_size))
    every_row = (1 << n_rows) - 1
    columns: dict[str, Any] = {}
    for _ in range(n_cols):
        name = reader.text()
        if name in columns:
            raise ProtocolError(f"binary message repeats column {name!r}")
        tag = reader.u8()
        nulls = reader.raw(bitmap_size)
        count = n_rows - (int.from_bytes(nulls, "little") & every_row).bit_count()
        if tag == COL_I64:
            values = struct.unpack(f">{count}q", reader.raw(8 * count))
        elif tag == COL_F64:
            values = struct.unpack(f">{count}d", reader.raw(8 * count))
        elif tag == COL_STR:
            values = [reader.text() for _ in range(count)]
        elif tag == COL_BBOX:
            values = list(_BBOX.iter_unpack(reader.raw(32 * count)))
        else:
            raise ProtocolError(f"unknown column type tag {tag}")
        if count != n_rows:
            cursor = iter(values)
            values = [
                None if nulls[row >> 3] >> (row & 7) & 1 else next(cursor)
                for row in range(n_rows)
            ]
        columns[name] = values
    return RowBatch(columns, list(zip(*columns.values())))


# ---------------------------------------------------------------------------
# Responses and errors
# ---------------------------------------------------------------------------


def encode_response(
    response: DataResponse, *, trace: list[dict[str, Any]] | None = None
) -> bytes:
    """Encode one response, and the spans recorded serving it, as a ``MSG_RESPONSE`` message."""
    out = bytearray()
    out += _U8.pack(MSG_RESPONSE)
    _pack_request(out, response.request)
    out += _F64.pack(response.query_ms)
    out += _U8.pack(1 if response.from_cache else 0)
    out += _I64.pack(response.queries_issued)
    out += _U8.pack(1 if response.coalesced else 0)
    _w_json_or_none(out, trace)
    _encode_objects(out, response.objects)
    return bytes(out)


def decode_response(body: bytes) -> tuple[DataResponse, list[dict[str, Any]]]:
    """Decode a response body into ``(response, remote_spans)``."""
    reader = _open(body, MSG_RESPONSE, "a response")
    request = _unpack_request(reader)
    query_ms = reader.f64()
    from_cache = reader.u8() != 0
    queries_issued = reader.i64()
    coalesced = reader.u8() != 0
    spans = reader.json_or_none() or []
    objects = _decode_objects(reader)
    reader.expect_end()
    response = DataResponse(
        request=request,
        objects=objects,
        query_ms=query_ms,
        from_cache=from_cache,
        queries_issued=queries_issued,
        coalesced=coalesced,
    )
    return response, spans


def encode_error(error: BaseException) -> bytes:
    """Encode a server-side failure as a ``MSG_ERROR`` message."""
    out = bytearray()
    out += _U8.pack(MSG_ERROR)
    _w_text(out, type(error).__name__)
    _w_text(out, str(error))
    return bytes(out)


def decode_error(body: bytes) -> tuple[str, str]:
    """Decode an error body into ``(type_name, message)``."""
    reader = _open(body, MSG_ERROR, "an error")
    name = reader.text()
    message = reader.text()
    reader.expect_end()
    return name, message


def message_kind(body: bytes) -> int:
    """The kind byte of a message."""
    if not body:
        raise ProtocolError("empty binary message")
    return body[0]
