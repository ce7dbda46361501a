"""Row (record) binary codec and record identifiers.

Records are serialised into a compact binary form so that the heap file can
store them on fixed-size pages, just like a conventional slotted-page DBMS.
A :class:`RecordId` names a record by ``(page_no, slot_no)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .schema import TableSchema
from .types import decode_value, encode_value


@dataclass(frozen=True, order=True)
class RecordId:
    """Physical address of a record: page number and slot within the page."""

    page_no: int
    slot_no: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordId(page={self.page_no}, slot={self.slot_no})"


def encode_row(row: Sequence[Any], schema: TableSchema) -> bytes:
    """Serialise an already-coerced row into bytes according to ``schema``."""
    parts = [
        encode_value(value, column.type)
        for value, column in zip(row, schema.columns)
    ]
    return b"".join(parts)


def decode_row(buffer: bytes, schema: TableSchema) -> tuple[Any, ...]:
    """Deserialise a row previously produced by :func:`encode_row`."""
    values: list[Any] = []
    offset = 0
    for column in schema.columns:
        value, offset = decode_value(buffer, offset, column.type)
        values.append(value)
    return tuple(values)
