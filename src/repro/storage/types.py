"""Column types supported by the embedded storage engine.

The engine supports the small set of types Kyrix needs for placement tables
and raw-data tables: 64-bit integers, double-precision floats, UTF-8 strings
and axis-aligned bounding boxes (the ``bbox`` column of the paper's spatial
database design).
"""

from __future__ import annotations

import enum
import struct
from typing import Any

from ..errors import TypeMismatchError


class ColumnType(enum.Enum):
    """Enumeration of supported column types."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BBOX = "bbox"

    @classmethod
    def parse(cls, name: str) -> "ColumnType":
        """Resolve a type from its SQL-ish name (case-insensitive).

        Accepts a few common aliases (``int``, ``bigint``, ``double``,
        ``real``, ``varchar``, ``string``) so that the column lists handed to
        :meth:`~repro.storage.database.Database.create_table` read naturally.
        """
        normalized = name.strip().lower()
        aliases = {
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
            "bigint": cls.INTEGER,
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "numeric": cls.FLOAT,
            "text": cls.TEXT,
            "varchar": cls.TEXT,
            "string": cls.TEXT,
            "bbox": cls.BBOX,
            "box": cls.BBOX,
        }
        if normalized not in aliases:
            raise TypeMismatchError(f"unknown column type: {name!r}")
        return aliases[normalized]


#: Python types acceptable for each column type when inserting.
_ACCEPTED_PYTHON_TYPES: dict[ColumnType, tuple[type, ...]] = {
    ColumnType.INTEGER: (int,),
    ColumnType.FLOAT: (int, float),
    ColumnType.TEXT: (str,),
    ColumnType.BBOX: (tuple, list),
}


def coerce_value(value: Any, column_type: ColumnType, column_name: str = "?") -> Any:
    """Validate ``value`` against ``column_type`` and return the stored form.

    ``None`` is allowed for every type (SQL NULL).  Integers are accepted for
    FLOAT columns and widened; bbox values are normalised to a 4-tuple of
    floats ``(xmin, ymin, xmax, ymax)``.
    """
    if value is None:
        return None
    accepted = _ACCEPTED_PYTHON_TYPES[column_type]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeMismatchError(
            f"column {column_name!r} expects {column_type.value}, "
            f"got {type(value).__name__}: {value!r}"
        )
    if column_type is ColumnType.INTEGER:
        return int(value)
    if column_type is ColumnType.FLOAT:
        return float(value)
    if column_type is ColumnType.TEXT:
        return str(value)
    # BBOX
    if len(value) != 4:
        raise TypeMismatchError(
            f"column {column_name!r} expects a 4-element bbox, got {value!r}"
        )
    xmin, ymin, xmax, ymax = (float(v) for v in value)
    if not (xmin <= xmax and ymin <= ymax):  # a NaN compares false: refused too
        raise TypeMismatchError(
            f"column {column_name!r}: bbox has min > max or a NaN: {value!r}"
        )
    return (xmin, ymin, xmax, ymax)


# ---------------------------------------------------------------------------
# Binary encoding of single values (used by the row codec)
# ---------------------------------------------------------------------------

_NULL_TAG = 0
_PRESENT_TAG = 1


def encode_value(value: Any, column_type: ColumnType) -> bytes:
    """Serialise one (already coerced) value to bytes."""
    if value is None:
        return struct.pack("<B", _NULL_TAG)
    header = struct.pack("<B", _PRESENT_TAG)
    if column_type is ColumnType.INTEGER:
        return header + struct.pack("<q", value)
    if column_type is ColumnType.FLOAT:
        return header + struct.pack("<d", value)
    if column_type is ColumnType.TEXT:
        raw = value.encode("utf-8")
        return header + struct.pack("<I", len(raw)) + raw
    # BBOX
    return header + struct.pack("<4d", *value)


def decode_value(buffer: bytes, offset: int, column_type: ColumnType) -> tuple[Any, int]:
    """Deserialise one value, returning ``(value, next_offset)``."""
    (tag,) = struct.unpack_from("<B", buffer, offset)
    offset += 1
    if tag == _NULL_TAG:
        return None, offset
    if column_type is ColumnType.INTEGER:
        (value,) = struct.unpack_from("<q", buffer, offset)
        return value, offset + 8
    if column_type is ColumnType.FLOAT:
        (value,) = struct.unpack_from("<d", buffer, offset)
        return value, offset + 8
    if column_type is ColumnType.TEXT:
        (length,) = struct.unpack_from("<I", buffer, offset)
        offset += 4
        raw = buffer[offset : offset + length]
        return raw.decode("utf-8"), offset + length
    # BBOX
    values = struct.unpack_from("<4d", buffer, offset)
    return tuple(values), offset + 32
