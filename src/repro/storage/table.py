"""A table: heap file storage plus its secondary indexes.

A table is loaded, indexed and then only read, as Kyrix's precomputed
tables are.  Its one write is an append: :meth:`Table.bulk_load` (and
:meth:`Table.insert`, a one-row load) adds rows to the heap, then rebuilds
every index (B-tree or R-tree) from the heap in one pass.  It exposes the
access paths the mini-SQL executor and the Kyrix backend use: full scans,
key-index lookups and spatial-intersection lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, lt
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import (
    DuplicateIndexError,
    DuplicateKeyError,
    SchemaError,
    StorageError,
    UnknownIndexError,
)
from .btree import BTreeIndex
from .heapfile import HeapFile
from .pager import BufferPool
from .rtree import Rect, RTreeIndex
from .schema import TableSchema
from .statistics import TableStats

#: Union of the index implementations a table may carry.
AnyIndex = BTreeIndex | RTreeIndex


@dataclass
class IndexInfo:
    """Catalog entry describing one index on a table."""

    name: str
    column: str
    kind: str  # "btree" | "rtree"
    unique: bool
    index: AnyIndex


class Table:
    """A named table with a schema, a heap file and secondary indexes."""

    def __init__(
        self,
        schema: TableSchema,
        pool: BufferPool,
        *,
        catalog_changed: Callable[[], None] = lambda: None,
    ) -> None:
        self.schema = schema
        self._heap = HeapFile(pool, schema)
        self._indexes: dict[str, IndexInfo] = {}
        # Told of every index created or dropped (the database's catalog version).
        self._catalog_changed = catalog_changed
        self._stats: TableStats | None = None
        #: The index the heap was last clustered on (PostgreSQL's
        #: ``indisclustered``); a copy of the table is clustered on it too.
        self.clustered_on: str | None = None

    # -- basic properties --------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def row_count(self) -> int:
        return len(self._heap)

    @property
    def indexes(self) -> dict[str, IndexInfo]:
        return dict(self._indexes)

    # -- index management ----------------------------------------------------------

    def create_index(
        self,
        name: str,
        column: str,
        kind: str = "btree",
        *,
        unique: bool = False,
    ) -> IndexInfo:
        """Create an index on ``column`` and backfill it from existing rows.

        ``kind`` is ``"btree"`` or ``"rtree"``.  R-tree indexes require a
        BBOX column.
        """
        if name in self._indexes:
            raise DuplicateIndexError(f"index {name!r} already exists on {self.name!r}")
        if not self.schema.has_column(column):
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        column = column.lower()
        if kind == "btree":
            index: AnyIndex = BTreeIndex(name, unique=unique)
        elif kind == "rtree":
            index = RTreeIndex(name)
        else:
            raise StorageError(f"unknown index kind: {kind!r}")
        info = IndexInfo(name=name, column=column, kind=kind, unique=unique, index=index)
        self._backfill_index(info)
        self._indexes[name] = info
        self._catalog_changed()
        return info

    def _backfill_index(self, info: IndexInfo) -> None:
        column_pos = self.schema.column_index(info.column)
        entries = [
            (row[column_pos], rid) for rid, row in self._heap.scan() if row[column_pos] is not None
        ]
        if info.kind == "btree":
            entries.sort(key=itemgetter(0))  # stable: equal keys stay in heap order
        info.index.bulk_load(entries)

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise UnknownIndexError(f"no index named {name!r} on table {self.name!r}")
        del self._indexes[name]
        if self.clustered_on == name:
            self.clustered_on = None
        self._catalog_changed()

    def get_index(self, name: str) -> IndexInfo:
        if name not in self._indexes:
            raise UnknownIndexError(f"no index named {name!r} on table {self.name!r}")
        return self._indexes[name]

    def find_index_on(self, column: str, kinds: Sequence[str] = ("btree", "rtree")) -> IndexInfo | None:
        """Return an index on ``column`` of one of the given kinds, or None."""
        column = column.lower()
        for info in self._indexes.values():
            if info.column == column and info.kind in kinds:
                return info
        return None

    # -- loading ------------------------------------------------------------------------

    def insert(self, values: Sequence[Any] | dict[str, Any]) -> int:
        """Append one row (positional sequence or column mapping) as a
        one-row :meth:`bulk_load`; returns its rid."""
        if isinstance(values, dict):
            row = self.schema.coerce_mapping(values)
        else:
            row = self.schema.coerce_row(values)
        (rid,) = self._load([row])
        return rid

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append positional rows to the heap, then rebuild every index in
        one pass (the R-tree's STR packing, the B-tree's sorted build).

        A key a unique index holds already, or one the rows repeat, raises
        :class:`~repro.errors.DuplicateKeyError` before the heap is touched.
        Returns the number of rows loaded.
        """
        return len(self._load(map(self.schema.coerce_row, rows)))

    def _load(self, rows: Iterable[tuple[Any, ...]]) -> list[int]:
        """The one write path: check unique keys, append, rebuild the indexes."""
        unique = [info for info in self._indexes.values() if info.unique and info.kind == "btree"]
        if unique:  # the rows are held back: a refused load writes nothing
            rows = list(rows)
            for info in unique:
                self._check_unique(info, rows)
        try:
            return self._heap.insert_many(rows)
        finally:  # what reached the heap reaches every index, failure or not
            for info in self._indexes.values():
                self._backfill_index(info)
            self._stats = None

    def _check_unique(self, info: IndexInfo, rows: list[tuple[Any, ...]]) -> None:
        position = self.schema.column_index(info.column)
        seen = set(info.index.keys())  # type: ignore[union-attr]
        for row in rows:
            key = row[position]
            if key is None:
                continue
            if key in seen:
                raise DuplicateKeyError(f"index {info.name!r}: duplicate key {key!r}")
            seen.add(key)

    def cluster(self, index_name: str) -> None:
        """Rewrite the heap in the order of ``index_name``'s entries, as
        PostgreSQL's ``CLUSTER`` does.

        An R-tree's order is its STR-packed entry order, so the rows under
        one leaf land on one or two pages and a box query's rows come back
        in page runs; a B-tree's is key order.  Rows the index does not hold
        (a NULL key) go last, in heap order.  Every index then maps its
        entries to the new rids in place -- none is repacked or re-sorted,
        so each answers as it did, rid for moved rid.  A heap already in
        that order is left as it is.  Like ``CLUSTER`` this wants the table
        to itself: no reader may run alongside.
        """
        info = self.get_index(index_name)
        order = info.index.rids()
        if len(order) < len(self._heap):
            position = self.schema.column_index(info.column)
            order += [rid for rid, row in self._heap.scan() if row[position] is None]
        self.clustered_on = info.name
        if all(map(lt, order, order[1:])):  # rids ascend: already in this order
            return
        old_to_new = dict(zip(order, self._heap.rewrite(order)))
        for other in self._indexes.values():
            other.index.remap(old_to_new)

    # -- access paths ------------------------------------------------------------------

    def fetch(self, rid: int) -> tuple[Any, ...]:
        """Return the row stored at ``rid``."""
        return self._heap.fetch(rid)

    def fetch_many(self, rids: Sequence[int]) -> list[tuple[Any, ...]]:
        """Rows at ``rids`` in request order, one page checkout per page run."""
        return self._heap.fetch_many(rids)

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Full scan yielding ``(rid, row)``."""
        return self._heap.scan()

    def scan_rows(self) -> Iterator[tuple[Any, ...]]:
        return self._heap.scan_rows()

    def lookup_key(self, column: str, key: Any) -> list[tuple[int, tuple[Any, ...]]]:
        """Equality lookup, via an index when available, otherwise a scan."""
        info = self.find_index_on(column, kinds=("btree",))
        if info is not None:
            rids = info.index.search(key)  # type: ignore[union-attr]
            return list(zip(rids, self._heap.fetch_many(rids)))
        position = self.schema.column_index(column)
        return [(rid, row) for rid, row in self._heap.scan() if row[position] == key]

    def lookup_keys(self, column: str, keys: Sequence[Any]) -> list[tuple[int, tuple[Any, ...]]]:
        """Equality lookup for several keys (IN-list)."""
        info = self.find_index_on(column, kinds=("btree",))
        if info is not None:
            rids = info.index.search_many(list(keys))  # type: ignore[union-attr]
            return list(zip(rids, self._heap.fetch_many(rids)))
        wanted = set(keys)
        position = self.schema.column_index(column)
        return [(rid, row) for rid, row in self._heap.scan() if row[position] in wanted]

    def spatial_search(self, column: str, query: Rect) -> list[tuple[int, tuple[Any, ...]]]:
        """Bbox-intersection lookup, via an R-tree when available."""
        info = self.find_index_on(column, kinds=("rtree",))
        if info is not None:
            rids = info.index.search(query)  # type: ignore[union-attr]
            return list(zip(rids, self._heap.fetch_many(rids)))
        position = self.schema.column_index(column)
        results = []
        for rid, row in self._heap.scan():
            value = row[position]
            if value is not None and Rect.from_tuple(value).intersects(query):
                results.append((rid, row))
        return results

    # -- statistics ------------------------------------------------------------------

    def statistics(self, *, refresh: bool = False) -> TableStats:
        """Return (possibly cached) table statistics."""
        if self._stats is None or refresh:
            stats = TableStats.empty(self.schema)
            for _, row in self._heap.scan():
                stats.observe_row(self.schema, row)
            self._stats = stats
        return self._stats
