"""The objects-block codec as it stood before PR 20 — the reference implementation.

``_column_tag`` / ``_encode_objects`` / ``_decode_objects`` of
``repro.net.columnar`` at the parent commit, moved here unchanged: one
Python statement per cell, obviously right, and slow.  The production
codec packs a column per call; ``tests/property/test_property_columnar.py``
holds its bytes and its decoded rows to this one.  Primitives (the bounds
checked reader, the text writer, the tags) are shared with production —
only the objects block differs.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.errors import ProtocolError
from repro.net.columnar import (
    _I64_MAX,
    _I64_MIN,
    _U8,
    _U32,
    COL_BOOL,
    COL_F64,
    COL_F64S,
    COL_I64,
    COL_JSON,
    COL_STR,
    _Reader,
    _w_text,
)
from repro.net.protocol import _canonical_value, _reject_unencodable


def _column_tag(values: list[Any]) -> int:
    """Pick the packed representation for one column's non-null values."""
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


def _encode_objects(out: bytearray, objects: list[dict[str, Any]]) -> None:
    n_rows = len(objects)
    out += _U32.pack(n_rows)
    names = sorted({name for obj in objects for name in obj})
    out += _U32.pack(len(names))
    bitmap_size = (n_rows + 7) // 8
    for name in names:
        _w_text(out, name)
        presence = bytearray(bitmap_size)
        nulls = bytearray(bitmap_size)
        values: list[Any] = []
        for row, obj in enumerate(objects):
            if name not in obj:
                continue
            presence[row >> 3] |= 1 << (row & 7)
            value = obj[name]
            if value is None:
                nulls[row >> 3] |= 1 << (row & 7)
            else:
                values.append(value)
        tag = _column_tag(values)
        out += _U8.pack(tag)
        out += presence
        out += nulls
        if tag == COL_I64:
            out += struct.pack(f">{len(values)}q", *values)
        elif tag == COL_F64:
            out += struct.pack(f">{len(values)}d", *values)
        elif tag == COL_BOOL:
            out += bytes(1 if value else 0 for value in values)
        elif tag == COL_STR:
            for value in values:
                _w_text(out, value)
        elif tag == COL_F64S:
            for value in values:
                out += _U8.pack(len(value))
                out += struct.pack(f">{len(value)}d", *value)
        else:
            for value in values:
                _w_text(
                    out,
                    json.dumps(value, sort_keys=True, default=_reject_unencodable),
                )


def _decode_objects(reader: _Reader) -> list[dict[str, Any]]:
    n_rows = reader.u32()
    n_cols = reader.u32()
    objects: list[dict[str, Any]] = [{} for _ in range(n_rows)]
    bitmap_size = (n_rows + 7) // 8
    for _ in range(n_cols):
        name = reader.text()
        tag = reader.u8()
        presence = reader.raw(bitmap_size)
        nulls = reader.raw(bitmap_size)
        present_rows = [
            row for row in range(n_rows) if presence[row >> 3] & (1 << (row & 7))
        ]
        value_rows = [
            row for row in present_rows if not nulls[row >> 3] & (1 << (row & 7))
        ]
        count = len(value_rows)
        values: list[Any]
        if tag == COL_I64:
            values = list(struct.unpack(f">{count}q", reader.raw(8 * count)))
        elif tag == COL_F64:
            values = list(struct.unpack(f">{count}d", reader.raw(8 * count)))
        elif tag == COL_BOOL:
            values = [byte != 0 for byte in reader.raw(count)]
        elif tag == COL_STR:
            values = [reader.text() for _ in range(count)]
        elif tag == COL_F64S:
            values = []
            for _ in range(count):
                size = reader.u8()
                values.append(struct.unpack(f">{size}d", reader.raw(8 * size)))
        elif tag == COL_JSON:
            values = [_canonical_value(reader.json()) for _ in range(count)]
        else:
            raise ProtocolError(f"unknown column type tag {tag}")
        cursor = iter(values)
        for row in present_rows:
            if nulls[row >> 3] & (1 << (row & 7)):
                objects[row][name] = None
            else:
                objects[row][name] = next(cursor)
    return objects
