"""Embedded storage engine: the reproduction's stand-in for PostgreSQL.

The engine provides everything the Kyrix backend needs from its backing
DBMS:

* slotted-page heap files behind an LRU buffer pool
  (:mod:`repro.storage.pager`, :mod:`repro.storage.heapfile`),
* B-tree and hash indexes for the tuple–tile mapping database design
  (:mod:`repro.storage.btree`, :mod:`repro.storage.hashindex`),
* an R-tree spatial index for the bbox database design used by dynamic
  boxes and spatial static tiles (:mod:`repro.storage.rtree`),
* a table/catalog layer tying them together (:mod:`repro.storage.table`,
  :mod:`repro.storage.database`).
"""

from .btree import BTreeIndex
from .database import Database
from .hashindex import HashIndex
from .heapfile import HeapFile
from .pager import BufferPool, PageStore, PagerStats
from .row import RecordId, compile_decoder, encode_row
from .rtree import Rect, RTreeIndex
from .schema import Column, TableSchema
from .statistics import ColumnStats, TableStats, compute_stats
from .table import IndexInfo, Table
from .types import ColumnType, coerce_value

__all__ = [
    "BTreeIndex",
    "BufferPool",
    "Column",
    "ColumnStats",
    "ColumnType",
    "Database",
    "HashIndex",
    "HeapFile",
    "IndexInfo",
    "PageStore",
    "PagerStats",
    "RecordId",
    "Rect",
    "RTreeIndex",
    "Table",
    "TableSchema",
    "TableStats",
    "coerce_value",
    "compile_decoder",
    "compute_stats",
    "encode_row",
]
