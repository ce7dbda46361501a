"""Experiment E9: storage-engine microbenchmarks.

Raw access-path costs of the embedded engine that stands in for PostgreSQL:
B-tree point lookups, R-tree intersection probes, heap scans and mini-SQL
query execution.  These are the terms the fetching-scheme results are built
out of; tracking them separately makes regressions attributable.
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest

from repro.minisql import SQLEngine
from repro.storage import BTreeIndex, Database, RecordId, Rect, RTreeIndex

N_ROWS = 20_000


@pytest.fixture(scope="module")
def loaded_database():
    database = Database()
    engine = SQLEngine(database)
    table = database.create_table(
        "dots", [("tuple_id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox")]
    )
    rng = random.Random(0)
    rows = []
    for i in range(N_ROWS):
        x, y = rng.uniform(0, 10_000), rng.uniform(0, 5_000)
        rows.append((i, x, y, (x - 0.5, y - 0.5, x + 0.5, y + 0.5)))
    table.bulk_load(rows)
    table.create_index("dots_id", "tuple_id", "btree", unique=True)
    table.create_index("dots_bbox", "bbox", "rtree")
    return database, engine, table


def test_btree_bulk_load(benchmark):
    keys = list(range(N_ROWS))
    random.Random(2).shuffle(keys)
    entries = [(key, RecordId(0, key % 100)) for key in keys]

    def build():
        # As a table builds its index: entries sorted by key, then packed.
        index = BTreeIndex("bench")
        index.bulk_load(sorted(entries, key=itemgetter(0)))
        return index

    index = benchmark(build)
    assert len(index) == N_ROWS


def test_btree_point_lookup(benchmark, loaded_database):
    _, _, table = loaded_database
    index = table.get_index("dots_id").index
    keys = list(range(0, N_ROWS, 97))

    def lookup():
        return sum(len(index.search(key)) for key in keys)

    assert benchmark(lookup) == len(keys)


def test_rtree_bulk_load(benchmark):
    rng = random.Random(1)
    entries = []
    for i in range(N_ROWS):
        x, y = rng.uniform(0, 10_000), rng.uniform(0, 5_000)
        entries.append((Rect(x, y, x + 1, y + 1), RecordId(0, i % 100)))

    def build():
        tree = RTreeIndex("bench")
        tree.bulk_load(entries)
        return tree

    tree = benchmark(build)
    assert len(tree) == N_ROWS


def test_rtree_viewport_probe(benchmark, loaded_database):
    _, _, table = loaded_database
    tree = table.get_index("dots_bbox").index
    query = Rect(4_000, 2_000, 5_024, 3_024)

    def probe():
        return len(tree.search(query))

    hits = benchmark(probe)
    assert hits > 0


def test_heap_full_scan(benchmark, loaded_database):
    _, _, table = loaded_database

    def scan():
        return sum(1 for _ in table.scan_rows())

    assert benchmark(scan) == N_ROWS


def test_sql_spatial_query(benchmark, loaded_database):
    _, engine, _ = loaded_database
    sql = "SELECT tuple_id, x, y FROM dots WHERE intersects(bbox, 4000, 2000, 5024, 3024)"

    def query():
        return len(engine.execute(sql))

    assert benchmark(query) > 0


def test_sql_key_join_query(benchmark, loaded_database):
    database, engine, _ = loaded_database
    if not database.has_table("mapping"):
        mapping = database.create_table("mapping", [("tuple_id", "int"), ("tile_id", "int")])
        mapping.bulk_load([(i, i // 1000) for i in range(N_ROWS)])
        mapping.create_index("mapping_tile", "tile_id", "btree")
        mapping.create_index("mapping_tuple", "tuple_id", "btree")
    sql = (
        "SELECT d.tuple_id FROM mapping m JOIN dots d ON m.tuple_id = d.tuple_id "
        "WHERE m.tile_id = 3"
    )

    def query():
        return len(engine.execute(sql))

    assert benchmark(query) == 1000
