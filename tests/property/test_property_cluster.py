"""Property test for ``Table.cluster``: the heap moves, the answers do not.

A generated table -- bulk-loaded, so every index is built from its heap --
is clustered on its R-tree or on a non-unique B-tree, on small pages in an
8-page pool.  Every index must answer as before, row for row and in the
same order; the heap must hold the index's entries in entry order with the
rows the index does not hold (a NULL key) last in their old order; every
index validates; and the table keeps taking inserts afterwards.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import StorageConfig
from repro.storage.database import Database

# A coarse grid: equal boxes and touching edges occur; a box may be NULL.
boxes = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 6), st.integers(0, 6)).map(
        lambda c: (float(c[0]), float(c[1]), float(c[0] + c[2]), float(c[1] + c[3]))
    ),
)
# Few keys: long equal-key runs in the B-tree.
rows = st.tuples(st.one_of(st.none(), st.integers(0, 4)), boxes, st.text(max_size=30))
QUERIES = [
    (-1.0, -1.0, 100.0, 100.0), (0.0, 0.0, 5.0, 5.0), (8.0, 3.0, 14.0, 20.0), (19.0, 0.0, 30.0, 9.0)
]


def answers(table) -> dict:
    """What every index says, as rows in the order the index gives them."""
    indexes = table.indexes
    fetch = table.fetch_many
    return {
        "rtree": [fetch(indexes["t_box"].index.search(query)) for query in QUERIES],
        "btree": [fetch(indexes["t_key"].index.search(key)) for key in range(5)],
        "scan": sorted(map(repr, table.scan_rows())),
    }


def _meets(box, query) -> bool:
    return box[0] <= query[2] and box[2] >= query[0] and box[1] <= query[3] and box[3] >= query[1]


@given(
    st.lists(rows, max_size=120),
    st.lists(rows, max_size=8),
    st.sampled_from(["t_box", "t_key"]),
)
@settings(max_examples=80, deadline=None)
def test_cluster_keeps_every_answer_and_puts_the_heap_in_entry_order(loaded, later, on):
    database = Database(StorageConfig(page_size=512, buffer_pool_pages=8))
    table = database.create_table("t", [("key", "integer"), ("box", "bbox"), ("label", "text")])
    table.create_index("t_box", "box", "rtree")
    table.create_index("t_key", "key", "btree")
    table.bulk_load(loaded)

    before = answers(table)
    index = table.indexes[on]
    column = 1 if on == "t_box" else 0
    expected_heap = table.fetch_many(index.index.rids()) + [
        row for row in table.scan_rows() if row[column] is None
    ]
    table.cluster(on)

    assert table.clustered_on == on
    assert answers(table) == before
    assert list(table.scan_rows()) == expected_heap
    for info in table.indexes.values():
        info.index.validate()
    scanned = list(table.scan())
    entries = table.indexes[on].index.rids()
    assert entries == [rid for rid, _ in scanned][: len(entries)]  # rids ascend

    table.cluster(on)  # already in that order: left as it is
    assert list(table.scan()) == scanned
    # Insert after cluster: still a table, its rows go last and its indexes follow.
    for row in later:
        table.insert(row)
    now = list(table.scan_rows())
    assert now == expected_heap + later
    for query in QUERIES:
        found = table.fetch_many(table.indexes["t_box"].index.search(query))
        assert sorted(map(repr, found)) == sorted(
            repr(row) for row in now if row[1] is not None and _meets(row[1], query)
        )
    for key in range(5):
        found = table.fetch_many(table.indexes["t_key"].index.search(key))
        assert sorted(map(repr, found)) == sorted(repr(row) for row in now if row[0] == key)
    for info in table.indexes.values():
        info.index.validate()
