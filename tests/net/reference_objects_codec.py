"""The objects block one cell at a time — the reference implementation.

The layout of ``repro.net.columnar`` (dense rows, one null bitmap and four
typed columns: i64, f64, str, bbox) written with one Python statement per
cell: obviously right, and slow.  The production codec packs a column per
call; ``tests/property/test_property_columnar.py`` holds its bytes, its
decoded rows and its refusals to this one.  Primitives (the bounds-checked
reader, the text writer, the tags) are shared with production — only the
objects block differs.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import ProtocolError
from repro.net.columnar import (
    _F64,
    _I64,
    _I64_MAX,
    _I64_MIN,
    _U8,
    _U32,
    COL_BBOX,
    COL_F64,
    COL_I64,
    COL_STR,
    _Reader,
    _w_text,
)

_TAGS = (COL_I64, COL_F64, COL_STR, COL_BBOX)


def _cell_tag(name: str, value: Any) -> int:
    """The tag of one non-null cell: its exact type, or a refusal."""
    kind = type(value)
    if kind is int and _I64_MIN <= value <= _I64_MAX:
        return COL_I64
    if kind is float:
        return COL_F64
    if kind is str:
        return COL_STR
    if kind is tuple and len(value) == 4 and all(type(item) is float for item in value):
        return COL_BBOX
    raise ProtocolError(f"column {name!r} holds {value!r}: it has no lossless wire encoding")


def _encode_objects(out: bytearray, objects: Any) -> None:
    rows = list(objects)
    n_rows = len(rows)
    names = sorted(rows[0]) if rows else []
    for obj in rows:
        if sorted(obj) != names:
            raise ProtocolError(f"rows carry keys other than {names}")
    if n_rows and not names:
        raise ProtocolError(f"{n_rows} rows without a column")
    out += _U32.pack(n_rows)
    out += _U32.pack(len(names))
    bitmap_size = (n_rows + 7) // 8
    for name in names:
        _w_text(out, name)
        nulls = bytearray(bitmap_size)
        values: list[Any] = []
        tag = None
        for row, obj in enumerate(rows):
            value = obj[name]
            if value is None:
                nulls[row >> 3] |= 1 << (row & 7)
                continue
            cell_tag = _cell_tag(name, value)
            if tag is not None and cell_tag != tag:
                raise ProtocolError(f"column {name!r} mixes types")
            tag = cell_tag
            values.append(value)
        tag = COL_I64 if tag is None else tag
        out += _U8.pack(tag)
        out += nulls
        for value in values:
            if tag == COL_I64:
                out += _I64.pack(value)
            elif tag == COL_F64:
                out += _F64.pack(value)
            elif tag == COL_STR:
                _w_text(out, value)
            else:
                out += struct.pack(">4d", *value)


def _decode_objects(reader: _Reader) -> list[dict[str, Any]]:
    n_rows = reader.u32()
    n_cols = reader.u32()
    if n_rows and not n_cols:
        raise ProtocolError(f"{n_rows} rows without a column")
    bitmap_size = (n_rows + 7) // 8
    reader.require(n_cols * (4 + 1 + bitmap_size))  # before n_rows sizes anything
    objects: list[dict[str, Any]] = [{} for _ in range(n_rows)]
    seen = set()
    for _ in range(n_cols):
        name = reader.text()
        if name in seen:
            raise ProtocolError(f"repeated column {name!r}")
        seen.add(name)
        tag = reader.u8()
        if tag not in _TAGS:
            raise ProtocolError(f"unknown column type tag {tag}")
        nulls = reader.raw(bitmap_size)
        for row in range(n_rows):
            if nulls[row >> 3] & (1 << (row & 7)):
                objects[row][name] = None
            elif tag == COL_I64:
                objects[row][name] = reader.i64()
            elif tag == COL_F64:
                objects[row][name] = reader.f64()
            elif tag == COL_STR:
                objects[row][name] = reader.text()
            else:
                objects[row][name] = struct.unpack(">4d", reader.raw(32))
    return objects
