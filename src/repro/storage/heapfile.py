"""Slotted-page heap file storing variable-length records.

Each heap page has the classic slotted layout::

    +--------+-----------------------+----------------------+
    | header | slot directory (grows | record payloads      |
    |        | downward from header) | (grow upward from    |
    |        |                       |  the end of the page)|
    +--------+-----------------------+----------------------+

Header: ``<H`` slot_count, ``<H`` free_space_offset.
Each slot: ``<H`` offset, ``<H`` length.

Records are only ever appended (or, by :meth:`HeapFile.rewrite`, copied
whole into fresh pages): no record is updated or deleted in place, so every
slot holds a live record.

Records are addressed by an integer rid, ``page_no << 16 | slot_no``
(:class:`~repro.storage.row.RecordId`), and never span pages, so the maximum
record size is bounded by the page size -- itself at most 65 535 bytes, what
a ``<H`` offset can name.
"""

from __future__ import annotations

import struct
from array import array
from itertools import accumulate
from operator import sub
from typing import Any, Iterable, Iterator, Sequence

from ..errors import PageError, RecordNotFoundError, StorageError
from .pager import BufferPool
from .row import SLOT_BITS, SLOT_MASK, RecordId, compile_decoder, compile_encoder
from .schema import TableSchema

_HEADER = struct.Struct("<HH")  # slot_count, free_space_offset
_SLOT = struct.Struct("<HH")  # record offset, record length

#: An encoded record on its way onto a page.
_Record = bytes | bytearray | memoryview


def _named(rid: int) -> RecordId:
    """``rid`` as page and slot, for a caller or an error message."""
    return RecordId(rid >> SLOT_BITS, rid & SLOT_MASK)


class HeapFile:
    """A collection of slotted pages holding one table's records."""

    def __init__(self, pool: BufferPool, schema: TableSchema) -> None:
        self._pool = pool
        self._schema = schema
        self._decode = compile_decoder(schema)
        self._encode = compile_encoder(schema)
        # This heap's pages: a dict for its order (allocation order is scan
        # order) and its O(1) membership test (rid ownership).
        self._page_nos: dict[int, None] = {}
        self._record_count = 0
        # ``(slot_count, free_offset)`` of the last page, the only one
        # records are appended to; ``(0, 0)`` fits nothing, so the first
        # append allocates.  Only :meth:`_append` writes a page header.
        self._tail = (0, 0)

    # -- public API -------------------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def page_count(self) -> int:
        return len(self._page_nos)

    def __len__(self) -> int:
        return self._record_count

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> list[int]:
        """Append (already coerced) rows in order; returns their rids."""
        return self._append(map(self._encode, rows))

    def rewrite(self, rids: Sequence[int]) -> list[int]:
        """Store every record afresh, in ``rids`` order; the rids they move
        to, position for position.

        ``rids`` names each record exactly once.  The bytes are copied
        as stored -- nothing is decoded or encoded -- into new pages, and
        the old pages are freed from the pool and the store: every old rid
        stops resolving.  Not for use under concurrent readers.
        """
        if len(rids) != self._record_count or len(set(rids)) != len(rids):
            raise StorageError(
                f"a rewrite names each of the {self._record_count} records once; "
                f"got {len(rids)} rids"
            )
        # Copied out whole, then the old pages go before the new ones come:
        # a new page's frame takes the memory an old one gave back.
        stored, lengths = bytearray(), array("H")
        for page, offset, length in self._locate(rids):
            stored += page[offset : offset + length]
            lengths.append(length)
        for page_no in self._page_nos:
            self._pool.free_page(page_no)
        self._page_nos, self._tail, self._record_count = {}, (0, 0), 0
        view = memoryview(stored)
        return self._append(
            view[end - length : end] for end, length in zip(accumulate(lengths), lengths)
        )

    def _append(self, records: Iterable[_Record]) -> list[int]:
        """Append encoded records, a page at a time: records are gathered
        while they fit on the last page, then written with one checkout and
        one header write.  Returns their rids."""
        rids: list[int] = []
        batch: list[_Record] = []
        slot_count, free_offset = self._tail
        try:
            for record in records:
                slot_count += 1
                free_offset -= len(record)
                if free_offset < _HEADER.size + slot_count * _SLOT.size:
                    max_record = self._pool.page_size - _HEADER.size - _SLOT.size
                    if len(record) > max_record:
                        raise PageError(
                            f"record of {len(record)} bytes exceeds page capacity "
                            f"({max_record} bytes)"
                        )
                    rids += self._write_tail(batch)
                    batch = []
                    self._page_nos[self._pool.allocate_page()] = None
                    self._tail = (0, self._pool.page_size)
                    slot_count, free_offset = 1, self._pool.page_size - len(record)
                batch.append(record)
        finally:  # what was appended before a failure stays
            rids += self._write_tail(batch)
        return rids

    def _write_tail(self, records: list[_Record]) -> list[int]:
        """Write ``records`` after the last page's, which have room for them:
        the payloads as one slice (they sit end to end, growing down from the
        free offset) and their slots as one pack."""
        if not records:
            return []
        page_no = next(reversed(self._page_nos))
        slot_count, free_offset = self._tail
        lengths = [len(record) for record in records]
        offsets = list(accumulate(lengths, sub, initial=free_offset))[1:]
        # Every byte written follows from ``_tail``: a fresh page the pool
        # evicted before now reads back as zeros, and that is fine.
        page = self._pool.get_page(page_no)
        page[offsets[-1] : free_offset] = b"".join(reversed(records))
        slots = [value for slot in zip(offsets, lengths) for value in slot]
        struct.pack_into(
            f"<{len(slots)}H", page, _HEADER.size + slot_count * _SLOT.size, *slots
        )
        first, slot_count = page_no << SLOT_BITS | slot_count, slot_count + len(records)
        _HEADER.pack_into(page, 0, slot_count, offsets[-1])
        self._pool.mark_dirty(page_no)
        self._tail = (slot_count, offsets[-1])
        self._record_count += len(records)
        return list(range(first, first + len(records)))

    def _locate(self, rids: Iterable[int]) -> Iterator[tuple[bytearray, int, int]]:
        """Yield ``(page, offset, length)`` of the record at each rid.

        The one place a rid is validated: the page is this heap's and the
        slot is in the page's directory (a negative rid names page -1 or
        below, which no heap owns).  A run of rids on one page costs one
        pool checkout and one header read.
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
            yield page, offset, length

    def fetch_many(self, rids: Iterable[int]) -> list[tuple[Any, ...]]:
        """Return the rows stored at ``rids``, in request order."""
        decode = self._decode
        return [decode(page, offset, length) for page, offset, length in self._locate(rids)]

    def fetch(self, rid: int) -> tuple[Any, ...]:
        """Return the row stored at ``rid``."""
        return self.fetch_many((rid,))[0]

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield every record as ``(rid, row)`` in physical order."""
        decode = self._decode
        for page_no in self._page_nos:
            page = self._pool.get_page(page_no)
            slot_count, _ = _HEADER.unpack_from(page, 0)
            directory = page[_HEADER.size : _HEADER.size + slot_count * _SLOT.size]
            first = page_no << SLOT_BITS
            for rid, (offset, length) in enumerate(_SLOT.iter_unpack(directory), first):
                yield rid, decode(page, offset, length)

    def scan_rows(self) -> Iterator[tuple[Any, ...]]:
        """Yield every record without its rid."""
        for _, row in self.scan():
            yield row
