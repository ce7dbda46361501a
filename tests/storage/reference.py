"""Scan-only references for a table's indexed reads.

What an index probe plus a fetch must find, read by walking the heap row by
row: no index, no ``Rect``, nothing shared with either tree.  Both return
``(rid, row)`` pairs in heap order.
"""

from __future__ import annotations

from typing import Any


def lookup_key(table, column: str, key: Any) -> list[tuple[int, tuple]]:
    """Every row whose ``column`` equals ``key``."""
    position = table.schema.column_index(column)
    return [(rid, row) for rid, row in table.scan() if row[position] == key]


def spatial_search(table, column: str, query) -> list[tuple[int, tuple]]:
    """Every row whose box in ``column`` shares a point with ``query``
    (``xmin, ymin, xmax, ymax``; touching edges count)."""
    position = table.schema.column_index(column)
    qx0, qy0, qx1, qy1 = query
    return [
        (rid, row)
        for rid, row in table.scan()
        if row[position] is not None
        and row[position][0] <= qx1 and qx0 <= row[position][2]
        and row[position][1] <= qy1 and qy0 <= row[position][3]
    ]


def probe(table, column: str, key_or_query: Any) -> list[tuple[int, tuple]]:
    """The path under test: the index on ``column`` searched, its rids
    fetched, in the index's order."""
    rids = table.find_index_on(column).index.search(key_or_query)
    return list(zip(rids, table.fetch_many(rids)))
