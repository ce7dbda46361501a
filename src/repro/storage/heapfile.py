"""Slotted-page heap file storing variable-length records.

Each heap page has the classic slotted layout::

    +--------+-----------------------+----------------------+
    | header | slot directory (grows | record payloads      |
    |        | downward from header) | (grow upward from    |
    |        |                       |  the end of the page)|
    +--------+-----------------------+----------------------+

Header: ``<H`` slot_count, ``<H`` free_space_offset.
Each slot: ``<H`` offset, ``<H`` length; a length of 0 marks a deleted slot.

Records are addressed by an integer rid, ``page_no << 16 | slot_no``
(:class:`~repro.storage.row.RecordId`), and never span pages, so the maximum
record size is bounded by the page size -- itself at most 65 535 bytes, what
a ``<H`` offset can name.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Iterator, Sequence

from ..errors import PageError, RecordNotFoundError
from .pager import BufferPool
from .row import SLOT_BITS, SLOT_MASK, RecordId, compile_decoder, encode_row
from .schema import TableSchema

_HEADER = struct.Struct("<HH")  # slot_count, free_space_offset
_SLOT = struct.Struct("<HH")  # record offset, record length


def _named(rid: int) -> RecordId:
    """``rid`` as page and slot, for an error message."""
    return RecordId(rid >> SLOT_BITS, rid & SLOT_MASK)


class HeapFile:
    """A collection of slotted pages holding one table's records."""

    def __init__(self, pool: BufferPool, schema: TableSchema) -> None:
        self._pool = pool
        self._schema = schema
        self._decode = compile_decoder(schema)
        # This heap's pages: a dict for its order (allocation order is scan
        # order) and its O(1) membership test (rid ownership).
        self._page_nos: dict[int, None] = {}
        self._record_count = 0

    # -- page-format helpers ---------------------------------------------------

    def _init_page(self, page: bytearray) -> None:
        _HEADER.pack_into(page, 0, 0, self._pool.page_size)

    def _page_header(self, page: bytearray) -> tuple[int, int]:
        return _HEADER.unpack_from(page, 0)

    def _set_slot(self, page: bytearray, slot_no: int, offset: int, length: int) -> None:
        _SLOT.pack_into(page, _HEADER.size + slot_no * _SLOT.size, offset, length)

    def _free_space(self, page: bytearray) -> int:
        slot_count, free_offset = self._page_header(page)
        directory_end = _HEADER.size + slot_count * _SLOT.size
        return free_offset - directory_end

    # -- public API -------------------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def page_count(self) -> int:
        return len(self._page_nos)

    def __len__(self) -> int:
        return self._record_count

    def insert(self, row: Sequence[Any]) -> RecordId:
        """Append an (already coerced) row; returns its :class:`RecordId`."""
        payload = encode_row(row, self._schema)
        needed = len(payload) + _SLOT.size
        max_payload = self._pool.page_size - _HEADER.size - _SLOT.size
        if len(payload) > max_payload:
            raise PageError(
                f"record of {len(payload)} bytes exceeds page capacity "
                f"({max_payload} bytes)"
            )
        page_no, page = self._find_page_with_space(needed)
        slot_count, free_offset = self._page_header(page)
        record_offset = free_offset - len(payload)
        page[record_offset:free_offset] = payload
        self._set_slot(page, slot_count, record_offset, len(payload))
        _HEADER.pack_into(page, 0, slot_count + 1, record_offset)
        self._pool.mark_dirty(page_no)
        self._record_count += 1
        return RecordId(page_no=page_no, slot_no=slot_count)

    def _find_page_with_space(self, needed: int) -> tuple[int, bytearray]:
        # Appending workloads dominate (bulk loads), so only the last page is
        # checked before allocating a new one.
        if self._page_nos:
            last_no = next(reversed(self._page_nos))
            page = self._pool.get_page(last_no)
            if self._free_space(page) >= needed:
                return last_no, page
        page_no = self._pool.allocate_page()
        page = self._pool.get_page(page_no)
        self._init_page(page)
        self._pool.mark_dirty(page_no)
        self._page_nos[page_no] = None
        return page_no, page

    def _locate(self, rids: Iterable[int]) -> Iterator[tuple[bytearray, int, int]]:
        """Yield ``(page, offset, length)`` of the live record at each rid.

        The one place a rid is validated: the page is this heap's, the slot
        is in the page's directory and the record is not a tombstone (a
        negative rid names page -1 or below, which no heap owns).  A run of
        rids on one page costs one pool checkout and one header read.
        """
        get_page, owned, unpack_slot = self._pool.get_page, self._page_nos, _SLOT.unpack_from
        unpack_header = _HEADER.unpack_from
        page_no, page, slot_count = -1, bytearray(), 0
        for rid in rids:
            rid_page = rid >> SLOT_BITS
            if rid_page != page_no:
                if rid_page not in owned:
                    raise RecordNotFoundError(f"no such page in heap file: {_named(rid)}")
                page_no = rid_page
                page = get_page(page_no)
                slot_count, _ = unpack_header(page, 0)
            slot_no = rid & SLOT_MASK
            if slot_no >= slot_count:
                raise RecordNotFoundError(f"slot out of range: {_named(rid)}")
            offset, length = unpack_slot(page, _HEADER.size + slot_no * _SLOT.size)
            if length == 0:
                raise RecordNotFoundError(f"record was deleted: {_named(rid)}")
            yield page, offset, length

    def fetch_many(self, rids: Iterable[int]) -> list[tuple[Any, ...]]:
        """Return the rows stored at ``rids``, in request order."""
        decode = self._decode
        return [decode(page, offset, length) for page, offset, length in self._locate(rids)]

    def fetch(self, rid: int) -> tuple[Any, ...]:
        """Return the row stored at ``rid``."""
        return self.fetch_many((rid,))[0]

    def delete(self, rid: int) -> None:
        """Tombstone the record at ``rid`` (space is not reclaimed)."""
        page, offset, _ = next(self._locate((rid,)))
        self._set_slot(page, rid & SLOT_MASK, offset, 0)
        self._pool.mark_dirty(rid >> SLOT_BITS)
        self._record_count -= 1

    def update(self, rid: int, row: Sequence[Any]) -> int:
        """Replace the record at ``rid``; may move it to a new rid."""
        payload = encode_row(row, self._schema)
        page, offset, length = next(self._locate((rid,)))
        if len(payload) <= length:
            page[offset : offset + len(payload)] = payload
            self._set_slot(page, rid & SLOT_MASK, offset, len(payload))
            self._pool.mark_dirty(rid >> SLOT_BITS)
            return rid
        self.delete(rid)
        return self.insert(row)

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield every live record as ``(rid, row)`` in physical order."""
        decode = self._decode
        for page_no in self._page_nos:
            page = self._pool.get_page(page_no)
            slot_count, _ = self._page_header(page)
            directory = page[_HEADER.size : _HEADER.size + slot_count * _SLOT.size]
            first = page_no << SLOT_BITS
            for rid, (offset, length) in enumerate(_SLOT.iter_unpack(directory), first):
                if length:
                    yield rid, decode(page, offset, length)

    def scan_rows(self) -> Iterator[tuple[Any, ...]]:
        """Yield every live record without its rid."""
        for _, row in self.scan():
            yield row
