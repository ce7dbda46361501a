"""Slotted-page heap file storing variable-length records.

Each heap page has the classic slotted layout::

    +--------+-----------------------+----------------------+
    | header | slot directory (grows | record payloads      |
    |        | downward from header) | (grow upward from    |
    |        |                       |  the end of the page)|
    +--------+-----------------------+----------------------+

Header: ``<H`` slot_count, ``<H`` free_space_offset.
Each slot: ``<H`` offset, ``<H`` length.

Records are only ever appended -- encoded, or copied whole as stored
(:meth:`HeapFile.records`, which :meth:`HeapFile.rewrite` moves into fresh
pages): no record is updated or deleted in place, so every slot holds a live
record, and a page's records sit end to end below its free offset.

Records are addressed by an integer rid, ``page_no << 16 | slot_no``, and
never span pages, so the maximum record size is bounded by the page size --
itself at most 65 535 bytes, what a ``<H`` offset can name.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from functools import partial
from itertools import accumulate, islice, repeat, starmap
from operator import add, itemgetter, lt, mul, sub
from typing import Any, Iterable, Iterator, Sequence

from ..errors import PageError, RecordNotFoundError, StorageError
from .pager import BufferPool
from .row import (
    SLOT_BITS,
    SLOT_MASK,
    column_layout,
    compile_decoder,
    compile_encoder,
    compile_run_decoder,
)
from .schema import TableSchema
from .types import ColumnType

_HEADER = struct.Struct("<HH")  # slot_count, free_space_offset
_SLOT = struct.Struct("<HH")  # record offset, record length

#: An encoded record on its way onto a page.
_Record = bytes | bytearray | memoryview


class HeapFile:
    """A collection of slotted pages holding one table's records."""

    def __init__(self, pool: BufferPool, schema: TableSchema) -> None:
        self._pool = pool
        self._schema = schema
        self._decode = compile_decoder(schema)
        # ``(record width, run decoder)`` of all-present records, or None.
        self._run_decoder = compile_run_decoder(schema)
        #: The schema's compiled row encoder: a coerced row to its record.
        self.encode = compile_encoder(schema)
        # This heap's pages: a dict for its order (allocation order is scan
        # order) and its O(1) membership test (rid ownership).
        self._page_nos: dict[int, None] = {}
        self._record_count = 0
        # ``(slot_count, free_offset)`` of the last page, the only one
        # records are appended to; ``(0, 0)`` fits nothing, so the first
        # append allocates.  Only :meth:`append` writes a page header.
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
        return self.append(map(self.encode, rows))

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
        records = self.records(rids)
        for page_no in self._page_nos:
            self._pool.free_page(page_no)
        self._page_nos, self._tail, self._record_count = {}, (0, 0), 0
        return self.append(records)

    def records(self, rids: Iterable[int]) -> Iterator[memoryview]:
        """The records stored at ``rids``, in request order, as stored:
        copied into one buffer before this returns, and handed out as
        slices of it -- nothing is decoded, and no record is an object of
        its own until it is asked for."""
        stored, lengths = bytearray(), array("H")
        for page, offset, length in self._locate(rids):
            stored += page[offset : offset + length]
            lengths.append(length)
        bounds = map(slice, accumulate(lengths, initial=0), accumulate(lengths))
        return map(memoryview(stored).__getitem__, bounds)

    def append(self, records: Iterable[_Record]) -> list[int]:
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

        Each rid is validated: the page is this heap's and the slot is in
        the page's directory (a negative rid names page -1 or below, which
        no heap owns); :meth:`_fetch_ascending` refuses the same rids with
        the same messages.  A run of rids on one page costs one pool
        checkout and one header read.
        """
        get_page, owned, unpack_slot = self._pool.get_page, self._page_nos, _SLOT.unpack_from
        unpack_header = _HEADER.unpack_from
        page_no, page, slot_count = None, bytearray(), 0  # no page: the first rid's is checked too
        for rid in rids:
            rid_page = rid >> SLOT_BITS
            if rid_page != page_no:
                if rid_page not in owned:
                    raise RecordNotFoundError(
                        f"no such page in heap file: page={rid_page}, slot={rid & SLOT_MASK}"
                    )
                page_no = rid_page
                page = get_page(page_no)
                slot_count, _ = unpack_header(page, 0)
            slot_no = rid & SLOT_MASK
            if slot_no >= slot_count:
                raise RecordNotFoundError(f"slot out of range: page={page_no}, slot={slot_no}")
            offset, length = unpack_slot(page, _HEADER.size + slot_no * _SLOT.size)
            yield page, offset, length

    def fetch_many(self, rids: Iterable[int]) -> list[tuple[Any, ...]]:
        """Return the rows stored at ``rids``, in request order.

        A strictly ascending request -- every box query on a heap clustered
        on its R-tree -- is read a page at a time (:meth:`_fetch_ascending`);
        any other one rid by rid through :meth:`_locate`.  Both check out
        the same pages in the same order and refuse the same first bad rid
        with the same message.
        """
        rids = rids if isinstance(rids, (list, tuple)) else list(rids)
        if all(map(lt, rids, islice(rids, 1, None))):
            return self._fetch_ascending(rids)
        decode = self._decode
        return [decode(page, offset, length) for page, offset, length in self._locate(rids)]

    def _fetch_ascending(self, rids: Sequence[int]) -> list[tuple[Any, ...]]:
        """:meth:`fetch_many` of strictly ascending ``rids``: each page's run
        is found with one bisect, validated as a whole (its last rid has the
        highest slot), and decoded in one pass -- a page whose records all
        have the all-present width (their total length says so, as in
        :meth:`column`) straight from the offsets its slots imply, any other
        page through its slot directory and the compiled decoder."""
        get_page, owned, page_size = self._pool.get_page, self._page_nos, self._pool.page_size
        width, decode_run = self._run_decoder or (0, None)
        rows: list[tuple[Any, ...]] = []
        start, count = 0, len(rids)
        while start < count:
            page_no = rids[start] >> SLOT_BITS
            first = page_no << SLOT_BITS  # the rid of slot 0
            stop = bisect_left(rids, first + SLOT_MASK + 1, start)
            if page_no not in owned:
                raise RecordNotFoundError(
                    f"no such page in heap file: page={page_no}, slot={rids[start] & SLOT_MASK}"
                )
            page = get_page(page_no)
            slot_count, free_offset = _HEADER.unpack_from(page, 0)
            if rids[stop - 1] - first >= slot_count:
                bad = rids[bisect_left(rids, first + slot_count, start, stop)]
                raise RecordNotFoundError(f"slot out of range: page={page_no}, slot={bad & SLOT_MASK}")
            run = rids[start:stop]
            if width and slot_count * width == page_size - free_offset:
                # Slot s sits at page_size - (s + 1) * width: records are
                # appended end to end, growing down from the page's end.
                top = page_size - width + first * width
                rows += decode_run(page, map(sub, repeat(top), map(mul, repeat(width), run)))
            else:
                directory = _HEADER.size - first * _SLOT.size
                entries = map(add, repeat(directory), map(mul, repeat(_SLOT.size), run))
                slots = map(_SLOT.unpack_from, repeat(page), entries)
                rows += starmap(partial(self._decode, page), slots)
            start = stop
        return rows

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

    def rids(self) -> list[int]:
        """Every record's rid, in physical order."""
        rids: list[int] = []
        for page_no in self._page_nos:
            slot_count, _ = _HEADER.unpack_from(self._pool.get_page(page_no), 0)
            rids += range(page_no << SLOT_BITS, (page_no << SLOT_BITS) + slot_count)
        return rids

    def column(self, position: int) -> list[Any]:
        """Column ``position``'s values in physical order, a page at a time:
        a page whose records all have the all-present fixed width (a NULL
        makes a record shorter, so their total length says so) is one
        column-only unpack of its records, which sit end to end in reverse
        slot order; any other page, and every page of a TEXT schema, is
        decoded record by record (``row.compile_decoder``'s split)."""
        layout, decode = column_layout(self._schema, position), self._decode
        box = self._schema.columns[position].type is ColumnType.BBOX
        page_size, values = self._pool.page_size, []
        for page_no in self._page_nos:
            page = self._pool.get_page(page_no)
            slot_count, free_offset = _HEADER.unpack_from(page, 0)
            if layout is not None and slot_count * layout.size == page_size - free_offset:
                unpacked = [*layout.iter_unpack(page[free_offset:page_size])]
                unpacked.reverse()
                values += unpacked if box else map(itemgetter(0), unpacked)
            else:
                directory = page[_HEADER.size : _HEADER.size + slot_count * _SLOT.size]
                values += [decode(page, *slot)[position] for slot in _SLOT.iter_unpack(directory)]
        return values
