"""Embedded storage engine: the reproduction's stand-in for PostgreSQL.

The engine provides everything the Kyrix backend needs from its backing
DBMS:

* slotted-page heap files behind an LRU buffer pool
  (:mod:`repro.storage.pager`, :mod:`repro.storage.heapfile`),
* B-tree indexes, each one sorted array of keys beside their record ids,
  for the tuple–tile mapping database design (:mod:`repro.storage.btree`),
* an R-tree spatial index for the bbox database design used by dynamic
  boxes and spatial static tiles (:mod:`repro.storage.rtree`),
* a table/catalog layer tying them together (:mod:`repro.storage.table`,
  :mod:`repro.storage.database`).

Like the precomputed tables the paper serves, a table is built, indexed
and then read: rows come in only by appending, and every append rebuilds
the table's indexes from the heap.  Nothing is updated or deleted in place.
"""

from .btree import BTreeIndex
from .database import Database
from .heapfile import HeapFile
from .pager import BufferPool, PageStore, PagerStats
from .row import compile_decoder, encode_row
from .rtree import Rect, RTreeIndex
from .schema import Column, TableSchema
from .table import IndexInfo, Table
from .types import ColumnType, coerce_value

__all__ = [
    "BTreeIndex",
    "BufferPool",
    "Column",
    "ColumnType",
    "Database",
    "HeapFile",
    "IndexInfo",
    "PageStore",
    "PagerStats",
    "Rect",
    "RTreeIndex",
    "Table",
    "TableSchema",
    "coerce_value",
    "compile_decoder",
    "encode_row",
]
