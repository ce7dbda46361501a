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
from tests.storage import reference
from tests.storage.reference import probe


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
        assert [found for found, _ in probe(dots_table, "id", 5)][-1] == rid
        assert [row[0] for _, row in probe(dots_table, "bbox", Rect(999, 0, 999, 0))] == [5]
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
        assert [row[0] for _, row in probe(dots_table, "x", 3.0)] == [100]
        hits = sorted(row[0] for _, row in probe(dots_table, "bbox", Rect(3, 3, 3, 3)))
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
            assert [row for _, row in probe(table, "id", id_)] == [(id_, a)]
            assert [row for _, row in probe(table, "a", a)] == [(id_, a)]
        assert probe(table, "a", 99) == probe(table, "a", 30) == []

    def test_a_refused_load_is_invisible_to_sql(self, database, table):
        engine = SQLEngine(database)
        for rows in (
            [(1, 99)],  # a key the index holds
            [(3, 30), (3, 31)],  # a key the rows repeat
        ):
            with pytest.raises(DuplicateKeyError, match="t_id"):
                table.bulk_load(rows)
            self.assert_unchanged(table)
        assert engine.execute("SELECT * FROM t").rows == [(1, 10), (2, 20)]
        assert engine.execute("SELECT id FROM t WHERE a = 99").rows == []
        assert table.bulk_load([(3, 30), (4, 99)]) == 2
        assert engine.execute("SELECT id FROM t WHERE a = 99").rows == [(4,)]

    def test_a_refused_table_insert_writes_nothing(self, table):
        for row in ((1, 99), {"id": 2, "a": 99}):
            with pytest.raises(DuplicateKeyError, match="t_id"):
                table.insert(row)
            self.assert_unchanged(table)
        table.insert({"id": 3, "a": 99})
        assert [row for _, row in probe(table, "a", 99)] == [(3, 99)]

    def test_a_refused_load_leaves_a_prepared_statement_reading_the_old_rows(self, database, table):
        engine = SQLEngine(database)
        statement = engine.prepare("SELECT id FROM t WHERE a = ?")
        for rows in ([(3, 30), (2, 99)], [(4, 40), (4, 99)]):
            with pytest.raises(DuplicateKeyError, match="t_id"):
                table.bulk_load(rows)
            self.assert_unchanged(table)
            assert engine.execute(statement.bind(99)).rows == []
        assert table.bulk_load([(3, 30), (4, 40)]) == 2
        assert engine.execute(statement.bind(40)).rows == [(4,)]

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
        with pytest.raises(TypeMismatchError, match="NaN"):
            dots_table.bulk_load([(500, 0.0, 0.0, tuple(bbox))])
        assert len(dots_table) == 100
        assert probe(dots_table, "bbox", Rect(5000, 0, 5001, 1)) == []

    def test_infinite_bounds_stay_legal_and_both_paths_agree(self, dots_table):
        rid = dots_table.insert((500, 0.0, 0.0, (-math.inf, 2000.0, math.inf, 2001.0)))
        scanned = reference.spatial_search(dots_table, "bbox", (7000, 2000, 7001, 2000.5))
        dots_table.create_index("dots_bbox", "bbox", "rtree")
        assert probe(dots_table, "bbox", Rect(7000, 2000, 7001, 2000.5)) == scanned
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

    @pytest.mark.parametrize("column, kind", [("id", "INTEGER"), ("x", "FLOAT"), ("label", "TEXT")])
    def test_an_rtree_on_a_column_that_is_no_bbox_is_refused(self, database, column, kind):
        table = database.create_and_load(
            "t", [("id", "int"), ("x", "float"), ("label", "text"), ("bbox", "bbox")],
            [(11, 0.5, "0011", (0.0, 0.0, 1.0, 1.0)), (1234, 1.5, "12", None)],
        )
        version = database.catalog_version
        with pytest.raises(SchemaError, match=f"an rtree needs a BBOX column; t.{column} is {kind}"):
            table.create_index("by_it", column, "rtree")
        assert table.indexes == {} and database.catalog_version == version
        table.create_index("by_box", "bbox", "rtree")
        assert [row[0] for _, row in probe(table, "bbox", Rect(0, 0, 1, 1))] == [11]

    def test_a_hash_index_is_an_unknown_kind(self, database, dots_table):
        version = database.catalog_version
        with pytest.raises(StorageError, match="unknown index kind: 'hash'"):
            dots_table.create_index("by_id", "id", "hash")
        assert dots_table.indexes == {} and database.catalog_version == version


class TestAccessPaths:
    def test_a_key_probe_equals_the_scan_reference(self, dots_table):
        dots_table.insert((10, 0.0, 0.0, None))  # a repeated key
        dots_table.create_index("dots_id", "id", "btree")
        assert probe(dots_table, "id", 10) == reference.lookup_key(dots_table, "id", 10)
        assert len(probe(dots_table, "id", 10)) == 2

    def test_a_box_probe_equals_the_scan_reference(self, dots_table):
        query = Rect(0, 0, 200, 100)
        dots_table.create_index("dots_bbox", "bbox", "rtree")
        found = sorted(probe(dots_table, "bbox", query))
        assert found == reference.spatial_search(dots_table, "bbox", query.as_tuple())
        assert found  # the query rectangle does contain dots

    def test_fetch_many(self, dots_table):
        rids = [rid for rid, _ in list(dots_table.scan())[:5]]
        rows = dots_table.fetch_many(rids)
        assert len(rows) == 5

    def test_bulk_load_rebuilds_indexes(self, database):
        table = database.create_table("t", [("a", "int")])
        table.create_index("t_a", "a", "btree")
        table.bulk_load([(i,) for i in range(50)])
        assert len(table.get_index("t_a").index) == 50
        assert probe(table, "a", 25)[0][1] == (25,)

    def test_a_load_that_fails_part_way_leaves_every_index_agreeing_with_the_heap(self, database):
        table = database.create_table("t", [("a", "int")])
        table.create_index("t_a", "a", "btree")
        with pytest.raises(SchemaError):
            table.bulk_load(iter([(1,), (2,), (3, 4)]))  # the third row is refused
        index = table.get_index("t_a").index
        assert index.rids() == [rid for rid, _ in table.scan()]
        assert list(index.keys()) == [row[0] for _, row in table.scan()]

