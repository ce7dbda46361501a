"""A table: heap file storage plus its secondary indexes.

A table is loaded, indexed and then only read, as Kyrix's precomputed
tables are.  Its one write is an append: :meth:`Table.bulk_load` (and
:meth:`Table.insert`, a one-row load) adds rows, :meth:`Table.copy_records`
another table's stored records, to the heap, then every index (B-tree or
R-tree) is rebuilt from its column in one pass.  It exposes what the
mini-SQL planner builds its access paths from: full scans, one column in
heap order, its indexes (``find_index_on``) and fetches by rid.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
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
from .rtree import RTreeIndex
from .schema import TableSchema
from .types import ColumnType

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

        ``kind`` is ``"btree"`` or ``"rtree"``.  An R-tree on a column that
        is not BBOX is a :class:`~repro.errors.SchemaError`.
        """
        if name in self._indexes:
            raise DuplicateIndexError(f"index {name!r} already exists on {self.name!r}")
        if not self.schema.has_column(column):
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        column = column.lower()
        column_type = self.schema.column(column).type
        if kind == "rtree" and column_type is not ColumnType.BBOX:
            raise SchemaError(
                f"an rtree needs a BBOX column; {self.name}.{column} is {column_type.name}"
            )
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
        info.index.bulk_load(self.column(info.column), self._heap.rids())

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
        (rid,) = self._load([self._heap.encode(row)], lambda position: [row[position]])
        return rid

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append positional rows to the heap, then rebuild every index in
        one pass (the R-tree's STR packing, the B-tree's sorted build).

        A key a unique index holds already, or one the rows repeat, raises
        :class:`~repro.errors.DuplicateKeyError` before the heap is touched.
        Returns the number of rows loaded.
        """
        rows = map(self.schema.coerce_row, rows)
        if self._unique_indexes():  # the rows are held back: a refused load writes nothing
            rows = list(rows)
        records = map(self._heap.encode, rows)
        return len(self._load(records, lambda position: [row[position] for row in rows]))

    def copy_records(self, source: "Table", rids: Sequence[int]) -> int:
        """Append ``source``'s records at ``rids``, in that order, as they
        are stored: nothing is decoded, coerced or encoded.  ``source`` has
        this table's columns.  Otherwise a :meth:`bulk_load` of those rows,
        unique-key check included (the keys are read from ``source``'s
        column).  Returns the number copied."""
        if source.schema.columns != self.schema.columns:
            raise SchemaError(f"cannot copy {source.name!r}'s records into {self.name!r}")

        def keys(position: int) -> list[Any]:
            stored = dict(zip(source._heap.rids(), source._heap.column(position)))
            return [stored[rid] for rid in rids]

        return len(self._load(source._heap.records(rids), keys))

    def _unique_indexes(self) -> list[IndexInfo]:
        return [info for info in self._indexes.values() if info.unique and info.kind == "btree"]

    def _load(self, records: Iterable[Any], keys: Callable[[int], list[Any]]) -> list[int]:
        """The one write path: check unique keys, append, rebuild the indexes.

        ``records`` are encoded; ``keys(position)`` is that column's values
        in ``records`` order, read for a unique index only.
        """
        for info in self._unique_indexes():
            self._check_unique(info, keys(self.schema.column_index(info.column)))
        try:
            return self._heap.append(records)
        finally:  # what reached the heap reaches every index, failure or not
            for info in self._indexes.values():
                self._backfill_index(info)

    def _check_unique(self, info: IndexInfo, keys: list[Any]) -> None:
        seen = set(info.index.keys())  # type: ignore[union-attr]
        for key in keys:
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
            keys = self._heap.column(self.schema.column_index(info.column))
            order += [rid for rid, key in zip(self._heap.rids(), keys) if key is None]
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

    def rids(self) -> list[int]:
        """Every row's rid, in heap order."""
        return self._heap.rids()

    def column(self, name: str) -> list[Any]:
        """One column's values in heap order (:meth:`HeapFile.column`)."""
        return self._heap.column(self.schema.column_index(name))
