"""Row (record) binary codec and record identifiers.

Records are serialised into a compact binary form so that the heap file can
store them on fixed-size pages, just like a conventional slotted-page DBMS.
A record id is the integer ``page_no << 16 | slot_no``; :class:`RecordId`
names its two halves.

Reading goes through a decoder compiled once per schema: a row
whose columns are all present and fixed-width is one ``struct`` unpack
straight off the page buffer; only a row holding a NULL or a TEXT value is
walked value by value.  Writing mirrors it: an encoder compiled once per
schema packs such a row in one ``struct`` call, and :func:`encode_row` --
the reference it must equal byte for byte -- encodes every other row.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from operator import itemgetter
from typing import Any, Callable, Sequence

from .schema import TableSchema
from .types import ColumnType, decode_value, encode_value


#: A record id packs ``page_no << SLOT_BITS | slot_no``: slotted-page offsets
#: are 16-bit, so a page never has 2 ** 16 slots.
SLOT_BITS = 16
SLOT_MASK = (1 << SLOT_BITS) - 1


class RecordId(int):
    """Physical address of a record: page number and slot within the page.

    A rid *is* the integer ``page_no << 16 | slot_no`` -- what the indexes
    store and :class:`~repro.storage.heapfile.HeapFile` resolves; this class
    only names the two halves, for error messages.  It orders and compares
    as its integer.
    """

    __slots__ = ()

    def __new__(cls, page_no: int, slot_no: int) -> "RecordId":
        return super().__new__(cls, page_no << SLOT_BITS | slot_no)

    def __getnewargs__(self) -> tuple[int, int]:  # copy / pickle rebuild from the halves
        return (self.page_no, self.slot_no)

    @property
    def page_no(self) -> int:
        return self >> SLOT_BITS

    @property
    def slot_no(self) -> int:
        return self & SLOT_MASK

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordId(page={self.page_no}, slot={self.slot_no})"


def encode_row(row: Sequence[Any], schema: TableSchema) -> bytes:
    """Serialise an already-coerced row into bytes according to ``schema``."""
    parts = [
        encode_value(value, column.type)
        for value, column in zip(row, schema.columns)
    ]
    return b"".join(parts)


#: ``struct`` codes of the fixed-width types; ``x`` skips the presence tag
#: (packing writes it as 0, and the encoder sets it).
_FIXED_CODES = {ColumnType.INTEGER: "xq", ColumnType.FLOAT: "xd", ColumnType.BBOX: "x4d"}


#: A compiled decoder: ``(buffer, offset, length) -> row``.
RowDecoder = Callable[[bytes | bytearray, int, int], tuple[Any, ...]]


def compile_decoder(schema: TableSchema) -> RowDecoder:
    """Build the decoder for one schema's records.

    A NULL is encoded shorter than any present value, so in a schema without
    TEXT a record is exactly as long as the all-present layout if and only
    if every column is present -- the record's length alone picks the path.
    """
    types = tuple(column.type for column in schema.columns)

    def walk(buffer: bytes | bytearray, offset: int, length: int) -> tuple[Any, ...]:
        row: list[Any] = []
        for column_type in types:
            value, offset = decode_value(buffer, offset, column_type)
            row.append(value)
        return tuple(row)

    if not types or ColumnType.TEXT in types:
        return walk
    layout = struct.Struct("<" + "".join(_FIXED_CODES[t] for t in types))
    fixed_size, unpack_from, shape = layout.size, layout.unpack_from, _row_shape(types)

    def decode(buffer: bytes | bytearray, offset: int, length: int) -> tuple[Any, ...]:
        if length != fixed_size:
            return walk(buffer, offset, length)  # some column is NULL
        values = unpack_from(buffer, offset)
        return values if shape is None else shape(values)

    return decode


def _row_shape(types: Sequence[ColumnType]) -> Callable[[tuple[Any, ...]], tuple[Any, ...]] | None:
    """Regroup flat unpacked values into a row: a BBOX is four of them."""
    if ColumnType.BBOX not in types:
        return None
    picks: list[int | slice] = []
    position = 0
    for column_type in types:
        width = 4 if column_type is ColumnType.BBOX else 1
        picks.append(position if width == 1 else slice(position, position + width))
        position += width
    if len(picks) == 1:
        return lambda values: (values,)
    return itemgetter(*picks)


#: A compiled encoder: ``row -> record bytes``.
RowEncoder = Callable[[Sequence[Any]], bytes | bytearray]


def compile_encoder(schema: TableSchema) -> RowEncoder:
    """Build the encoder for one schema's (already coerced) rows: the
    all-present fixed-width layout :func:`compile_decoder` reads, packed
    in one call, and :func:`encode_row` for a row holding a NULL (or any
    row of a schema with TEXT)."""
    types = tuple(column.type for column in schema.columns)
    if not types or ColumnType.TEXT in types:
        return lambda row: encode_row(row, schema)
    codes = [_FIXED_CODES[t] for t in types]
    pack = struct.Struct("<" + "".join(codes)).pack
    # Where each presence tag lands, and which values are four floats.
    tags = list(accumulate((struct.calcsize("<" + code) for code in codes[:-1]), initial=0))
    boxes = [i for i in reversed(range(len(types))) if types[i] is ColumnType.BBOX]

    def encode(row: Sequence[Any]) -> bytes | bytearray:
        if None in row:
            return encode_row(row, schema)
        values = list(row)
        for i in boxes:  # right to left: a splice leaves the positions before it
            values[i : i + 1] = values[i]
        record = bytearray(pack(*values))
        for offset in tags:
            record[offset] = 1
        return record

    return encode
