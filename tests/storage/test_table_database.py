"""Tests for the table abstraction and the database catalog."""

import math

import pytest

from repro.errors import (
    DuplicateIndexError,
    DuplicateKeyError,
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

    def test_insert_into_an_indexed_table_rebuilds_every_index(self, dots_table):
        dots_table.create_index("dots_id", "id", "btree")
        dots_table.create_index("dots_bbox", "bbox", "rtree")
        rid = dots_table.insert({"id": 5, "x": 999.0, "y": 0.0, "bbox": (998, -1, 1000, 1)})
        assert [found for found, _ in dots_table.lookup_key("id", 5)][-1] == rid
        assert [row[0] for _, row in dots_table.spatial_search("bbox", Rect(999, 0, 999, 0))] == [5]
        assert len(dots_table.get_index("dots_id").index) == 101
        dots_table.get_index("dots_bbox").index.validate()

    def test_inserted_rows_go_last_in_the_heap(self, dots_table):
        before = list(dots_table.scan())
        rid = dots_table.insert((500, 0.0, 0.0, None))
        after = list(dots_table.scan())
        assert after[:-1] == before and after[-1] == (rid, (500, 0.0, 0.0, None))

    def test_insert_after_cluster_keeps_the_order_and_every_index(self, dots_table):
        dots_table.create_index("by_x", "x", "btree")
        dots_table.create_index("by_box", "bbox", "rtree")
        dots_table.cluster("by_box")
        clustered = list(dots_table.scan_rows())
        dots_table.insert((100, 3.0, 3.0, (2.0, 2.0, 4.0, 4.0)))
        assert list(dots_table.scan_rows()) == clustered + [(100, 3.0, 3.0, (2.0, 2.0, 4.0, 4.0))]
        assert [row[0] for _, row in dots_table.lookup_key("x", 3.0)] == [100]
        hits = sorted(row[0] for _, row in dots_table.spatial_search("bbox", Rect(3, 3, 3, 3)))
        assert hits == [100]
        for info in dots_table.indexes.values():
            info.index.validate()

    def test_insert_wrong_arity_rejected(self, database):
        table = database.create_table("t", [("a", "int"), ("b", "int")])
        with pytest.raises(SchemaError):
            table.insert((1,))


class TestUniqueKeys:
    """A load a unique index refuses is refused before the heap is touched:
    afterwards the scan and every index probe still see the table as it was."""

    @pytest.fixture()
    def table(self, database):
        table = database.create_table("t", [("id", "int"), ("a", "int")])
        table.create_index("t_id", "id", "btree", unique=True)
        table.create_index("t_a", "a", "btree")
        table.bulk_load([(1, 10), (2, 20)])
        return table

    @staticmethod
    def assert_unchanged(table):
        assert list(table.scan_rows()) == [(1, 10), (2, 20)]
        assert [len(info.index) for info in table.indexes.values()] == [2, 2]
        for id_, a in ((1, 10), (2, 20)):
            assert [row for _, row in table.lookup_key("id", id_)] == [(id_, a)]
            assert [row for _, row in table.lookup_key("a", a)] == [(id_, a)]
        assert table.lookup_key("a", 99) == table.lookup_key("a", 30) == []

    def test_a_refused_sql_insert_writes_nothing(self, database, table):
        engine = SQLEngine(database)
        for sql in (
            "INSERT INTO t VALUES (1, 99)",  # a key the index holds
            "INSERT INTO t VALUES (3, 30), (3, 31)",  # a key the rows repeat
        ):
            with pytest.raises(DuplicateKeyError, match="t_id"):
                engine.execute(sql)
            self.assert_unchanged(table)
        assert engine.execute("SELECT * FROM t").rows == [(1, 10), (2, 20)]
        assert engine.execute("SELECT id FROM t WHERE a = 99").rows == []
        assert engine.execute("INSERT INTO t VALUES (3, 30), (4, 99)").rowcount == 2
        assert engine.execute("SELECT id FROM t WHERE a = 99").rows == [(4,)]

    def test_a_refused_table_insert_writes_nothing(self, table):
        for row in ((1, 99), {"id": 2, "a": 99}):
            with pytest.raises(DuplicateKeyError, match="t_id"):
                table.insert(row)
            self.assert_unchanged(table)
        table.insert({"id": 3, "a": 99})
        assert [row for _, row in table.lookup_key("a", 99)] == [(3, 99)]

    def test_a_refused_prepared_insert_writes_nothing(self, database, table):
        engine = SQLEngine(database)
        statement = engine.prepare("INSERT INTO t VALUES (?, ?), (?, ?)")
        for values in ((3, 30, 2, 99), (4, 40, 4, 99)):
            with pytest.raises(DuplicateKeyError, match="t_id"):
                engine.execute(statement.bind(*values))
            self.assert_unchanged(table)
        assert engine.execute(statement.bind(3, 30, 4, 40)).rowcount == 2
        assert engine.execute("SELECT a FROM t WHERE id = 4").rows == [(40,)]

    def test_a_unique_index_over_repeated_keys_is_refused(self, database):
        table = database.create_and_load("r", [("id", "int")], [(1,), (2,), (1,)])
        version = database.catalog_version
        with pytest.raises(DuplicateKeyError):
            table.create_index("r_id", "id", "btree", unique=True)
        assert table.indexes == {} and database.catalog_version == version
        assert list(table.scan_rows()) == [(1,), (2,), (1,)]

    def test_a_refused_bulk_load_writes_nothing(self, table):
        for rows in ([(3, 30), (1, 99)], [(3, 30), (3, 31)]):
            with pytest.raises(DuplicateKeyError, match="t_id"):
                table.bulk_load(rows)
            self.assert_unchanged(table)
        with pytest.raises(DuplicateKeyError):
            table.insert((2, 99))
        self.assert_unchanged(table)
        # NULL is no key: any number of them load.
        assert table.bulk_load([(None, 30), (None, 31)]) == 2
        assert len(table.get_index("t_id").index) == 2


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
        dots_table.create_index("by_id", "id", "btree")
        assert dots_table.clustered_on is None
        dots_table.cluster("by_x")
        assert dots_table.clustered_on == "by_x"
        dots_table.drop_index("by_id")
        assert dots_table.clustered_on == "by_x"
        dots_table.drop_index("by_x")  # a copy of the table has nothing to follow
        assert dots_table.clustered_on is None

    def test_find_index_on(self, dots_table):
        dots_table.create_index("i_box", "bbox", "rtree")
        assert dots_table.find_index_on("bbox").kind == "rtree"
        assert dots_table.find_index_on("bbox", kinds=("btree",)) is None
        assert dots_table.find_index_on("x") is None

    def test_a_hash_index_is_an_unknown_kind(self, database, dots_table):
        with pytest.raises(StorageError, match="unknown index kind: 'hash'"):
            dots_table.create_index("by_id", "id", "hash")
        with pytest.raises(StorageError, match="unknown index kind: 'hash'"):
            SQLEngine(database).execute("CREATE INDEX by_id ON dots (id) USING hash")
        assert dots_table.indexes == {}


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

    def test_a_load_that_fails_part_way_leaves_every_index_agreeing_with_the_heap(self, database):
        table = database.create_table("t", [("a", "int")])
        table.create_index("t_a", "a", "btree")
        with pytest.raises(SchemaError):
            table.bulk_load(iter([(1,), (2,), (3, 4)]))  # the third row is refused
        index = table.get_index("t_a").index
        assert list(index.items()) == [(row[0], rid) for rid, row in table.scan()]


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
