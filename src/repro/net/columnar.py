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
  (the ``handle`` hot path).  A trace context rides the message on the
  wire form only: stamped at encode time, popped server-side before the
  request object is rebuilt, so caches never see it.
* ``MSG_RESPONSE`` — a packed :class:`~repro.net.protocol.DataResponse`:
  scalar fields, the per-shard timing map, remotely-collected trace spans
  (a JSON blob), and the objects as a columnar block.
* ``MSG_ERROR`` — an exception type name and message; the stub re-raises
  it as a :class:`~repro.serving.transport.TransportError`.

There is no other kind: ``handle`` is the one operation a shard serves
(canvas metadata is a function of the compiled plan, which never crosses
the wire).  An unknown kind byte, a truncated body or trailing bytes raise
a typed :class:`~repro.errors.ProtocolError` — a garbled frame never
decodes to a plausible value.

The columnar block stores, per column: the name, a one-byte type tag, a
presence bitmap (key absent vs present), a null bitmap, then the packed
values of the present non-null rows in row order.  Columns that are not
homogeneously typed — or hold values with no fixed-width representation —
fall back to per-cell canonical JSON, decoded through the same recursive
canonicalisation as :meth:`DataResponse.from_json`, so **a decoded payload
equals its JSON-decoded twin** and ``decode(encode(r)) == r`` holds for
every response the JSON encoding can carry (and some it cannot, e.g. NaN
floats).

Integers outside the signed 64-bit range and mixed int/float columns use
the JSON fallback deliberately: packing them as doubles would round or
retype them, and the law of this wire is losslessness first.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import replace
from itertools import chain, repeat
from typing import Any

from ..errors import ProtocolError
from .protocol import (
    ABSENT,
    DataRequest,
    DataResponse,
    RowBatch,
    _Absent,
    _canonical_value,
    _reject_unencodable,
)

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

#: Column type tags of the columnar block.
COL_JSON = 0  # per-cell canonical JSON (mixed / nested / exotic columns)
COL_I64 = 1
COL_F64 = 2
COL_STR = 3
COL_BOOL = 4
COL_F64S = 5  # tuple of floats (e.g. the ``bbox`` placement column)

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: Most rows an objects block without a column (rows of ``{}``) may declare.
#: Any other shape is bounded by the bytes that carry it (two bitmaps per
#: column); this one is eight bytes whatever it claims, so both sides cap it.
MAX_EMPTY_ROWS = 1 << 16


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


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as error:
        raise ProtocolError(f"binary message holds invalid JSON: {error}") from error


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

    def peek(self, size: int) -> bytes:
        """Up to ``size`` bytes ahead of the cursor, which stays put."""
        return self._data[self._offset : self._offset + size]

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

    def json(self) -> Any:
        return _loads(self.text())

    def json_or_none(self) -> Any:
        text = self.text()
        return _loads(text) if text else None

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


def _pack_request(
    out: bytearray, request: DataRequest, trace: dict[str, Any] | None
) -> None:
    """Pack every :class:`DataRequest` field, wire order.

    ``trace`` overrides the request's own ``trace`` field for this one
    encoding — the transport stub stamps the caller's context onto the
    wire form only.
    """
    _w_text(out, request.app_name)
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
    _w_opt_i64(out, request.shard_id)
    _w_json_or_none(out, request.trace if trace is None else trace)


def _unpack_request(reader: _Reader) -> DataRequest:
    """The inverse of :func:`_pack_request`: every field, same order."""
    return DataRequest(
        app_name=reader.text(),
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
        shard_id=reader.opt_i64(),
        trace=reader.json_or_none(),
    )


def encode_request(
    request: DataRequest, *, trace: dict[str, Any] | None = None
) -> bytes:
    """Encode one ``handle`` request as a ``MSG_REQUEST`` message."""
    out = bytearray()
    out += _U8.pack(MSG_REQUEST)
    _pack_request(out, request, trace)
    return bytes(out)


def decode_request(body: bytes) -> tuple[DataRequest, dict[str, Any] | None]:
    """Decode a request body into ``(request, trace_context)``.

    The trace context is popped off the rebuilt request — server-side
    caches and responses must stay identical whether or not the caller
    traces.
    """
    reader = _open(body, MSG_REQUEST, "a request")
    request = _unpack_request(reader)
    reader.expect_end()
    context = request.trace
    if context is not None:
        request = replace(request, trace=None)
    return request, context


# ---------------------------------------------------------------------------
# The columnar objects block
# ---------------------------------------------------------------------------
# A column travels whole — cells gathered in one pass, each bitmap one
# integer, the values one ``struct`` call, rows zipped back once — so no
# statement runs per cell unless the column has absent keys, nulls or
# cells no typed column can carry.  A :class:`RowBatch` is transposed, rows to
# columns going out and back coming in: no row dict, and columns only in here.


_NONE_TYPE = type(None)
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bitmap(flags: list[bool], size: int) -> bytes:
    """One bit per row, row 0 first: bit ``row`` of a little-endian integer
    *is* byte ``row >> 3``, bit ``row & 7`` — the layout the wire always had."""
    return int(bytes(flags).translate(_BIT_DIGITS)[::-1], 2).to_bytes(size, "little")


def _column_tag(kinds: set[type], values: list[Any] | tuple[Any, ...]) -> int:
    """Pick the packed representation for one column's non-null values.

    ``kinds`` is ``set(map(type, values))`` and decides a column of one exact
    builtin type; one that mixes kinds or holds a subclass (``IntEnum``,
    ``numpy.float64``) goes through the ``isinstance`` rules the shortcuts agree with.
    """
    if len(kinds) == 1:
        (kind,) = kinds
        if kind is float:
            return COL_F64
        if kind is int:
            in_range = _I64_MIN <= min(values) and max(values) <= _I64_MAX
            return COL_I64 if in_range else COL_JSON
        if kind is str:
            return COL_STR
        if kind is bool:
            return COL_BOOL
        if (
            kind is tuple
            and max(map(len, values)) <= 255
            and set(map(type, chain.from_iterable(values))) <= {float}
        ):
            return COL_F64S
    saw_bool = saw_int = saw_float = saw_str = saw_floats = False
    for value in values:
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, int):
            if not _I64_MIN <= value <= _I64_MAX:
                return COL_JSON
            saw_int = True
        elif isinstance(value, float):
            saw_float = True
        elif isinstance(value, str):
            saw_str = True
        elif (
            isinstance(value, tuple)
            and len(value) <= 255
            and all(isinstance(item, float) for item in value)
        ):
            saw_floats = True
        else:
            return COL_JSON
    flags = (saw_bool, saw_int, saw_float, saw_str, saw_floats)
    if sum(flags) != 1:
        # Mixed columns (including int/float mixes) fall back to JSON
        # cells: packing 1 and 1.0 into one numeric column would retype
        # one of them, and losslessness outranks compactness.
        return COL_JSON
    return (COL_BOOL, COL_I64, COL_F64, COL_STR, COL_F64S)[flags.index(True)]


def _encode_objects(out: bytearray, objects: RowBatch | list[dict[str, Any]]) -> None:
    n_rows = len(objects)
    if isinstance(objects, RowBatch):
        # No row, no column: an empty batch is the frame ``[]`` always was.
        columns = dict(zip(objects.names, zip(*objects.rows)))
    else:
        # Decoded from JSON or built by hand, maybe sparse: gathered key by key.
        columns = {
            name: list(map(dict.get, objects, repeat(name), repeat(ABSENT)))
            for name in set().union(*objects)
        }
    names = sorted(columns)
    if not names and n_rows > MAX_EMPTY_ROWS:
        raise ProtocolError(
            f"{n_rows} rows without a column exceed the {MAX_EMPTY_ROWS} the wire carries"
        )
    out += _U32.pack(n_rows)
    out += _U32.pack(len(names))
    bitmap_size = (n_rows + 7) // 8
    every_row = ((1 << n_rows) - 1).to_bytes(bitmap_size, "little")
    no_row = bytes(bitmap_size)
    for name in names:
        _w_text(out, name)
        values = columns[name]
        kinds = set(map(type, values))
        presence, nulls = every_row, no_row
        if _Absent in kinds or _NONE_TYPE in kinds:
            presence = _bitmap([cell is not ABSENT for cell in values], bitmap_size)
            nulls = _bitmap([cell is None for cell in values], bitmap_size)
            values = [cell for cell in values if cell is not None and cell is not ABSENT]
            kinds -= {_Absent, _NONE_TYPE}
        tag = _column_tag(kinds, values)
        out += _U8.pack(tag)
        out += presence
        out += nulls
        if tag == COL_I64:
            out += struct.pack(f">{len(values)}q", *values)
        elif tag == COL_F64:
            out += struct.pack(f">{len(values)}d", *values)
        elif tag == COL_BOOL:
            out += bytes(values)
        elif tag == COL_STR:
            texts = list(map(str.encode, values))
            sizes = map(_U32.pack, map(len, texts))
            out += b"".join(chain.from_iterable(zip(sizes, texts)))
        elif tag == COL_F64S:
            sizes = set(map(len, values))
            if len(sizes) == 1:
                (size,) = sizes
                pack = struct.Struct(f">B{size}d").pack
                rows = map(pack, repeat(size, len(values)), *zip(*values))
                # Consumed row by row: joining them first holds every packed
                # row at once, the widest moment of a whole step (+80 kB).
                deque(map(out.extend, rows), 0)
            else:
                for value in values:
                    out += _U8.pack(len(value))
                    out += struct.pack(f">{len(value)}d", *value)
        else:
            for value in values:
                _w_text(
                    out,
                    json.dumps(value, sort_keys=True, default=_reject_unencodable),
                )


def _read_f64s(reader: _Reader, count: int) -> list[tuple[float, ...]]:
    """``count`` length-prefixed float tuples.

    A block that lies inside the message with all its length bytes equal
    is split in one call; anything else — ragged tuples, a truncated tail —
    is walked tuple by tuple, so the bounds check that fails is the reader's.
    """
    head = reader.peek(1)
    if count and head:
        stride = 1 + 8 * head[0]
        block = reader.peek(count * stride)
        if len(block) == count * stride and block[::stride] == head * count:
            reader.raw(len(block))
            return list(struct.Struct(f">x{head[0]}d").iter_unpack(block))
    values = []
    for _ in range(count):
        size = reader.u8()
        values.append(struct.unpack(f">{size}d", reader.raw(8 * size)))
    return values


def _decode_objects(reader: _Reader) -> RowBatch:
    n_rows = reader.u32()
    n_cols = reader.u32()
    bitmap_size = (n_rows + 7) // 8
    # The declared shape is checked against the bytes that are left before
    # anything is sized by it: a short frame cannot ask for a long answer.
    if n_cols == 0:
        if n_rows > MAX_EMPTY_ROWS:
            raise ProtocolError(
                f"binary message declares {n_rows} rows without a column (> {MAX_EMPTY_ROWS})"
            )
        return RowBatch((), [()] * n_rows)
    reader.require(n_cols * (4 + 1 + 2 * bitmap_size))
    every_row = (1 << n_rows) - 1
    columns: dict[str, Any] = {}
    sparse = False
    for _ in range(n_cols):
        name = reader.text()
        tag = reader.u8()
        presence = reader.raw(bitmap_size)
        nulls = reader.raw(bitmap_size)
        present = int.from_bytes(presence, "little") & every_row
        null = int.from_bytes(nulls, "little") & present
        count = (present ^ null).bit_count()
        if tag == COL_I64:
            values = struct.unpack(f">{count}q", reader.raw(8 * count))
        elif tag == COL_F64:
            values = struct.unpack(f">{count}d", reader.raw(8 * count))
        elif tag == COL_BOOL:
            values = list(map(bool, reader.raw(count)))
        elif tag == COL_STR:
            values = [reader.text() for _ in range(count)]
        elif tag == COL_F64S:
            values = _read_f64s(reader, count)
        elif tag == COL_JSON:
            values = [_canonical_value(reader.json()) for _ in range(count)]
        else:
            raise ProtocolError(f"unknown column type tag {tag}")
        if count != n_rows:
            sparse |= present != every_row  # nulls alone leave every row its key
            cursor = iter(values)
            values = [
                ABSENT if not presence[row >> 3] >> (row & 7) & 1
                else None if nulls[row >> 3] >> (row & 7) & 1
                else next(cursor)
                for row in range(n_rows)
            ]
        if name in columns:
            # A frame that repeats a name decodes as its rows always did as
            # dictionaries: one cell per name, the last that is there.
            values = [old if new is ABSENT else new for old, new in zip(columns[name], values)]
        columns[name] = values
    return RowBatch(columns, list(zip(*columns.values())), sparse)


# ---------------------------------------------------------------------------
# Responses and errors
# ---------------------------------------------------------------------------


def encode_response(
    response: DataResponse, *, trace: list[dict[str, Any]] | None = None
) -> bytes:
    """Encode one response as a ``MSG_RESPONSE`` message.

    ``trace`` overrides the response's own span list for this one
    encoding — transports ship remotely-collected spans home without
    mutating a cached response.
    """
    out = bytearray()
    out += _U8.pack(MSG_RESPONSE)
    _pack_request(out, response.request, None)
    out += _F64.pack(response.query_ms)
    out += _U8.pack(1 if response.from_cache else 0)
    out += _I64.pack(response.queries_issued)
    out += _U8.pack(1 if response.coalesced else 0)
    shard_ms = response.shard_ms
    out += _U32.pack(len(shard_ms))
    for shard_name in sorted(shard_ms):
        _w_text(out, shard_name)
        out += _F64.pack(shard_ms[shard_name])
    _w_json_or_none(out, response.trace if trace is None else trace)
    _encode_objects(out, response.objects)
    return bytes(out)


def decode_response(body: bytes) -> tuple[DataResponse, list[dict[str, Any]]]:
    """Decode a response body into ``(response, remote_spans)``.

    Spans that rode the message come back separately and the decoded
    response carries an empty ``trace`` — the stub drains them into its
    own tracer, keeping responses above transports byte-identical whether
    or not the far side traced.
    """
    reader = _open(body, MSG_RESPONSE, "a response")
    request = _unpack_request(reader)
    query_ms = reader.f64()
    from_cache = reader.u8() != 0
    queries_issued = reader.i64()
    coalesced = reader.u8() != 0
    shard_ms = {reader.text(): reader.f64() for _ in range(reader.u32())}
    spans = reader.json_or_none() or []
    objects = _decode_objects(reader)
    reader.expect_end()
    response = DataResponse(
        request=request,
        objects=objects,
        query_ms=query_ms,
        from_cache=from_cache,
        queries_issued=queries_issued,
        shard_ms=shard_ms,
        coalesced=coalesced,
        trace=[],
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
