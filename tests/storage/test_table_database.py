"""Tests for the table abstraction and the database catalog."""

import math

import pytest

from repro.errors import (
    DuplicateIndexError,
    DuplicateTableError,
    SchemaError,
    StorageError,
    TypeMismatchError,
    UnknownIndexError,
    UnknownTableError,
)
from repro.minisql import SQLEngine
from repro.storage.database import Database
from repro.storage.rtree import Rect


@pytest.fixture()
def dots_table(database):
    table = database.create_table(
        "dots",
        [("id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox")],
    )
    rows = []
    for i in range(100):
        x, y = float(i * 10), float(i * 5)
        rows.append((i, x, y, (x - 1, y - 1, x + 1, y + 1)))
    table.bulk_load(rows)
    return table


class TestCatalog:
    def test_create_and_lookup(self, database):
        database.create_table("t", [("a", "int")])
        assert database.has_table("t")
        assert "t" in database
        assert database.table_names == ["t"]

    def test_table_names_case_insensitive(self, database):
        database.create_table("MyTable", [("a", "int")])
        assert database.has_table("mytable")
        assert database.table("MYTABLE").name == "mytable"

    def test_duplicate_table_rejected(self, database):
        database.create_table("t", [("a", "int")])
        with pytest.raises(DuplicateTableError):
            database.create_table("t", [("a", "int")])

    def test_drop_table(self, database):
        database.create_table("t", [("a", "int")])
        database.drop_table("t")
        assert not database.has_table("t")
        with pytest.raises(UnknownTableError):
            database.table("t")

    def test_drop_unknown_table(self, database):
        with pytest.raises(UnknownTableError):
            database.drop_table("missing")

    def test_describe(self, database):
        table = database.create_table("t", [("a", "int")])
        table.create_index("t_a", "a")
        description = database.describe()
        assert description["t"]["rows"] == 0
        assert "t_a" in description["t"]["indexes"]

    def test_create_and_load(self, database):
        table = database.create_and_load("t", [("a", "int")], [(1,), (2,)])
        assert table.row_count == 2


class TestTableModification:
    def test_insert_positional_and_mapping(self, database):
        table = database.create_table("t", [("a", "int"), ("b", "text")])
        table.insert((1, "x"))
        table.insert({"a": 2, "b": "y"})
        assert table.row_count == 2
        rows = sorted(table.scan_rows())
        assert rows == [(1, "x"), (2, "y")]

    def test_delete_removes_from_indexes(self, dots_table):
        dots_table.create_index("dots_id", "id", "btree")
        rid = dots_table.lookup_key("id", 5)[0][0]
        dots_table.delete(rid)
        assert dots_table.lookup_key("id", 5) == []
        assert dots_table.row_count == 99

    def test_update_changes_values_and_indexes(self, dots_table):
        dots_table.create_index("dots_id", "id", "btree")
        rid = dots_table.lookup_key("id", 7)[0][0]
        dots_table.update(rid, {"x": 999.0})
        results = dots_table.lookup_key("id", 7)
        assert len(results) == 1
        assert results[0][1][1] == 999.0

    def test_insert_wrong_arity_rejected(self, database):
        table = database.create_table("t", [("a", "int"), ("b", "int")])
        with pytest.raises(SchemaError):
            table.insert((1,))


class TestNanBbox:
    """A NaN is not a coordinate: ``xmin > xmax`` is false for one, so the
    check has to refuse it outright -- the heap scan and the R-tree would
    disagree on the stored row."""

    @pytest.mark.parametrize("position", range(4))
    def test_refused_on_every_way_in(self, database, dots_table, position):
        dots_table.create_index("dots_bbox", "bbox", "rtree")
        bbox = [5000.0, 0.0, 5001.0, 1.0]
        bbox[position] = math.nan
        with pytest.raises(TypeMismatchError, match="NaN"):
            dots_table.insert((500, 0.0, 0.0, tuple(bbox)))
        with pytest.raises(TypeMismatchError, match="NaN"):
            dots_table.insert({"id": 500, "x": 0.0, "y": 0.0, "bbox": bbox})
        with pytest.raises(TypeMismatchError, match="NaN"):
            database.create_and_load("other", [("bbox", "bbox")], [(tuple(bbox),)])
        insert = SQLEngine(database).prepare("INSERT INTO dots VALUES (500, 0, 0, bbox(?, ?, ?, ?))")
        with pytest.raises(TypeMismatchError, match="NaN"):
            SQLEngine(database).execute(insert.bind(*bbox))
        assert len(dots_table) == 100
        assert dots_table.spatial_search("bbox", Rect(5000, 0, 5001, 1)) == []

    def test_infinite_bounds_stay_legal_and_both_paths_agree(self, dots_table):
        rid = dots_table.insert((500, 0.0, 0.0, (-math.inf, 2000.0, math.inf, 2001.0)))
        scanned = dots_table.spatial_search("bbox", Rect(7000, 2000, 7001, 2000.5))
        dots_table.create_index("dots_bbox", "bbox", "rtree")
        assert dots_table.spatial_search("bbox", Rect(7000, 2000, 7001, 2000.5)) == scanned
        assert [found for found, _ in scanned] == [rid]


class TestIndexManagement:
    def test_create_index_backfills(self, dots_table):
        info = dots_table.create_index("dots_id", "id", "btree", unique=True)
        assert len(info.index) == 100

    def test_duplicate_index_name_rejected(self, dots_table):
        dots_table.create_index("i", "id")
        with pytest.raises(DuplicateIndexError):
            dots_table.create_index("i", "x")

    def test_index_on_unknown_column_rejected(self, dots_table):
        with pytest.raises(SchemaError):
            dots_table.create_index("i", "missing")

    def test_drop_index(self, dots_table):
        dots_table.create_index("i", "id")
        dots_table.drop_index("i")
        with pytest.raises(UnknownIndexError):
            dots_table.get_index("i")

    def test_cluster_is_recorded_until_its_index_is_dropped(self, dots_table):
        dots_table.create_index("by_x", "x", "btree")
        dots_table.create_index("by_id", "id", "hash")
        with pytest.raises(StorageError, match="hash"):
            dots_table.cluster("by_id")
        assert dots_table.clustered_on is None
        dots_table.cluster("by_x")
        assert dots_table.clustered_on == "by_x"
        dots_table.drop_index("by_id")
        assert dots_table.clustered_on == "by_x"
        dots_table.drop_index("by_x")  # a copy of the table has nothing to follow
        assert dots_table.clustered_on is None

    def test_find_index_on(self, dots_table):
        dots_table.create_index("i_hash", "id", "hash")
        assert dots_table.find_index_on("id").kind == "hash"
        assert dots_table.find_index_on("id", kinds=("btree",)) is None
        assert dots_table.find_index_on("x") is None


class TestAccessPaths:
    def test_lookup_key_with_and_without_index(self, dots_table):
        no_index = dots_table.lookup_key("id", 10)
        dots_table.create_index("dots_id", "id", "btree")
        with_index = dots_table.lookup_key("id", 10)
        assert [row for _, row in no_index] == [row for _, row in with_index]

    def test_lookup_keys(self, dots_table):
        dots_table.create_index("dots_id", "id", "btree")
        results = dots_table.lookup_keys("id", [1, 3, 5])
        assert sorted(row[0] for _, row in results) == [1, 3, 5]

    def test_spatial_search_with_and_without_index(self, dots_table):
        query = Rect(0, 0, 200, 100)
        no_index = {row[0] for _, row in dots_table.spatial_search("bbox", query)}
        dots_table.create_index("dots_bbox", "bbox", "rtree")
        with_index = {row[0] for _, row in dots_table.spatial_search("bbox", query)}
        assert no_index == with_index
        assert with_index  # the query rectangle does contain dots

    def test_fetch_many(self, dots_table):
        rids = [rid for rid, _ in list(dots_table.scan())[:5]]
        rows = dots_table.fetch_many(rids)
        assert len(rows) == 5

    def test_bulk_load_rebuilds_indexes(self, database):
        table = database.create_table("t", [("a", "int")])
        table.create_index("t_a", "a", "btree")
        table.bulk_load([(i,) for i in range(50)])
        assert len(table.get_index("t_a").index) == 50
        assert table.lookup_key("a", 25)[0][1] == (25,)


class TestStatistics:
    def test_statistics_counts_and_ranges(self, dots_table):
        stats = dots_table.statistics()
        assert stats.row_count == 100
        assert stats.columns["id"].min_value == 0
        assert stats.columns["id"].max_value == 99

    def test_statistics_cached_until_refresh(self, dots_table):
        first = dots_table.statistics()
        assert dots_table.statistics() is first
        dots_table.insert((100, 1.0, 1.0, (0, 0, 1, 1)))
        refreshed = dots_table.statistics()
        assert refreshed.row_count == 101

    def test_selectivity_estimate(self, dots_table):
        stats = dots_table.statistics()
        estimate = stats.selectivity_estimate("id", dots_table.schema)
        assert 0 < estimate <= 1.0 / 50
