"""Tests for the query planner and executor."""

from unittest import mock

import pytest

from repro.errors import SQLExecutionError, UnknownTableError
from repro.minisql.executor import SQLEngine
from repro.minisql.planner import IndexKeyScan, Planner, SeqScan, SpatialScan
from repro.minisql.parser import parse
from repro.storage.database import Database


@pytest.fixture()
def engine() -> SQLEngine:
    db = Database()
    dots = db.create_table(
        "dots", [("id", "int"), ("x", "float"), ("y", "float"), ("name", "text"), ("bbox", "bbox")]
    )
    dots.create_index("dots_id", "id")
    dots.create_index("dots_bbox", "bbox", "rtree")
    dots.bulk_load(
        (i, x, y, f"dot{i}", (x - 1, y - 1, x + 1, y + 1))
        for i, x, y in ((i, i * 2.0, i * 1.0) for i in range(50))
    )
    mapping = db.create_table("mapping", [("tuple_id", "int"), ("tile_id", "int")])
    mapping.create_index("mapping_tile", "tile_id")
    mapping.create_index("mapping_tuple", "tuple_id")
    mapping.bulk_load((i, i // 10) for i in range(50))
    return SQLEngine(db)


class TestPlanner:
    def test_equality_on_indexed_column_uses_key_scan(self, engine):
        planner = Planner(engine.database)
        planned = planner.plan(parse("SELECT * FROM dots WHERE id = 3"))
        assert planned.access_path == "key"

    def test_intersects_on_indexed_bbox_uses_spatial_scan(self, engine):
        planner = Planner(engine.database)
        planned = planner.plan(
            parse("SELECT * FROM dots WHERE intersects(bbox, 0, 0, 10, 10)")
        )
        assert planned.access_path == "spatial"

    def test_unindexed_predicate_uses_seq_scan(self, engine):
        planner = Planner(engine.database)
        planned = planner.plan(parse("SELECT * FROM dots WHERE x > 5"))
        assert planned.access_path == "seqscan"

    def test_residual_predicate_kept_as_filter(self, engine):
        planner = Planner(engine.database)
        planned = planner.plan(parse("SELECT * FROM dots WHERE id = 3 AND x > 1"))
        assert planned.access_path == "key"
        assert "Filter" in planned.root.explain()

    def test_unknown_table_raises(self, engine):
        planner = Planner(engine.database)
        with pytest.raises(UnknownTableError):
            planner.plan(parse("SELECT * FROM missing"))

    def test_explain_mentions_access_path(self, engine):
        plan_text = engine.explain("SELECT * FROM dots WHERE id = 3")
        assert "IndexKeyScan" in plan_text


class TestExecutorSelect:
    def test_select_star_columns_match_schema(self, engine):
        result = engine.execute("SELECT * FROM dots WHERE id = 0")
        assert result.columns == ["id", "x", "y", "name", "bbox"]
        assert len(result) == 1

    def test_projection_and_alias(self, engine):
        result = engine.execute("SELECT x * 2 AS double_x FROM dots WHERE id = 4")
        assert result.columns == ["double_x"]
        assert result.rows[0][0] == 16.0

    def test_where_filters(self, engine):
        result = engine.execute("SELECT id FROM dots WHERE x > 90")
        assert {row[0] for row in result.rows} == {46, 47, 48, 49}

    def test_spatial_query_matches_manual_filter(self, engine):
        spatial = engine.execute(
            "SELECT id FROM dots WHERE intersects(bbox, 0, 0, 20, 20)"
        )
        manual = engine.execute("SELECT id FROM dots WHERE x <= 21 AND y <= 21")
        assert {r[0] for r in spatial.rows} == {r[0] for r in manual.rows}

    def test_join_through_index(self, engine):
        result = engine.execute(
            "SELECT d.id FROM mapping m JOIN dots d ON m.tuple_id = d.id "
            "WHERE m.tile_id = 2"
        )
        assert [row[0] for row in result.rows] == list(range(20, 30))

    def test_join_without_index_uses_hash_join(self, engine):
        engine.database.create_and_load("extra", [("k", "int"), ("label", "text")],
                                        [(1, "one"), (2, "two")])
        sql = "SELECT d.id, e.label FROM dots d JOIN extra e ON d.id = e.k"
        assert "HashJoin" in engine.explain(sql)
        assert sorted(engine.execute(sql).rows) == [(1, "one"), (2, "two")]

    def test_select_constant_expression(self, engine):
        result = engine.execute("SELECT 1 + 1 AS two, id FROM dots WHERE id IN (3, 4)")
        assert result.columns == ["two", "id"]
        assert sorted(result.rows) == [(2, 3), (2, 4)]

    def test_columns_named_like_dropped_keywords_are_served(self, engine):
        engine.database.create_and_load(
            "words", [("order", "int"), ("max", "int"), ("count", "text")],
            [(1, 10, "a"), (2, None, "b"), (3, 30, None)],
        )
        result = engine.execute(
            "SELECT order, max(max, 20) AS hi, count FROM words WHERE order > 1"
        )
        assert result.columns == ["order", "hi", "count"]
        assert sorted(result.rows, key=lambda row: row[0]) == [(2, None, "b"), (3, 30, None)]

    def test_to_dicts(self, engine):
        rows = engine.execute("SELECT id, name FROM dots WHERE id = 7").to_dicts()
        assert rows == [{"id": 7, "name": "dot7"}]

    def test_in_list_via_index(self, engine):
        result = engine.execute("SELECT id FROM dots WHERE id IN (3, 5, 7)")
        assert sorted(row[0] for row in result.rows) == [3, 5, 7]
        assert result.access_path == "key"

    def test_in_list_repeats_and_nulls_probe_each_key_once(self, engine):
        # Found by the SQLite differential test: each listed key used to be
        # probed as often as it was listed, and a NULL key broke the B-tree.
        result = engine.execute("SELECT id FROM dots WHERE id IN (3, 3, 3.0, null, 5)")
        assert result.access_path == "key"
        assert sorted(result.rows) == [(3,), (5,)]
        assert engine.execute("SELECT id FROM dots WHERE id = null").rows == []


class TestNamesResolveAtPlanTime:
    """Column references are offsets fixed per plan: a bad one fails typed
    from ``execute`` and ``explain`` alike, whether or not a row matches."""

    @pytest.fixture()
    def twins(self, engine):
        engine.database.create_and_load("a", [("id", "int"), ("v", "int")], [(1, 10), (2, 20)])
        engine.database.create_and_load(
            "b", [("id", "int"), ("v", "int"), ("w", "int")], [(1, 100, 7), (2, 200, 8)]
        )
        return engine

    @pytest.mark.parametrize("run", ["execute", "explain"])
    def test_bare_name_in_both_join_sides_is_ambiguous(self, twins, run):
        with pytest.raises(SQLExecutionError, match="ambiguous column reference"):
            getattr(twins, run)("SELECT v FROM a JOIN b ON a.id = b.id")
        with pytest.raises(SQLExecutionError, match="ambiguous column reference"):
            getattr(twins, run)("SELECT a.v FROM a JOIN b ON a.id = b.id WHERE v > 0")

    def test_qualified_names_pick_their_side(self, twins):
        result = twins.execute("SELECT a.v, b.v FROM a JOIN b ON a.id = b.id")
        assert result.columns == ["v", "v_1"]
        assert sorted(result.rows) == [(10, 100), (20, 200)]

    @pytest.mark.parametrize("run", ["execute", "explain"])
    def test_unknown_name_fails_even_when_no_row_matches(self, twins, run):
        for sql in (
            "SELECT nope FROM a WHERE id = 99",
            "SELECT id FROM a WHERE nope = 1 AND id = 99",
            "SELECT abs(nope) FROM a WHERE id = 99",
            "SELECT b.id FROM a WHERE id = 99",
        ):
            with pytest.raises(SQLExecutionError, match="unknown column reference"):
                getattr(twins, run)(sql)

    def test_select_star_over_a_join_lists_each_bare_name_once(self, twins):
        result = twins.execute("SELECT * FROM a JOIN b ON a.id = b.id")
        assert result.columns == ["id", "v", "w"]  # outer columns, then the inner's new names
        assert sorted(result.rows) == [(1, 10, 7), (2, 20, 8)]


class TestRowsLoadedAfterPlanning:
    """Tables are written through the storage API (an append rebuilds every
    index); what a load adds is what the next SELECT reads."""

    def test_loaded_rows_are_indexed(self, engine):
        loaded = engine.database.table("dots").bulk_load(
            [(1000, 0, 0, "a", (500, 500, 501, 501)), (1001, 0, 0, "b", (500, 500, 501, 501))]
        )
        assert loaded == 2
        assert engine.execute("SELECT name FROM dots WHERE id = 1001").rows == [("b",)]
        spatial = engine.execute("SELECT id FROM dots WHERE intersects(bbox, 500, 500, 501, 501)")
        assert spatial.access_path == "spatial" and sorted(spatial.rows) == [(1000,), (1001,)]

    def test_a_row_given_by_name_leaves_the_rest_null(self, engine):
        engine.database.table("dots").insert({"id": 2000, "name": "partial"})
        row = engine.execute("SELECT x, name FROM dots WHERE id = 2000").rows[0]
        assert row == (None, "partial")

    def test_a_null_key_is_stored_but_not_indexed(self, engine):
        engine.database.table("dots").insert({"name": "keyless"})
        assert engine.execute("SELECT id FROM dots WHERE name = 'keyless'").rows == [(None,)]
        assert len(engine.execute("SELECT id FROM dots")) == 51
        assert len(engine.database.table("dots").get_index("dots_id").index) == 50
        assert len(engine.database.table("dots").get_index("dots_bbox").index) == 50

    def test_a_multi_row_load_is_one_index_rebuild(self, engine):
        table = engine.database.table("dots")
        index = table.get_index("dots_id").index
        rows = [(i, 0, 0, f"n{i}", (0, 0, 1, 1)) for i in range(100, 110)]
        with mock.patch.object(index, "bulk_load", wraps=index.bulk_load) as build:
            assert table.bulk_load(rows) == 10
        assert build.call_count == 1  # the ten rows went in together: one rebuild
        found = engine.execute("SELECT id FROM dots WHERE id IN (100, 105, 109)").rows
        assert sorted(found) == [(100,), (105,), (109,)]

    def test_a_comparison_with_null_filters_the_row_out(self, engine):
        engine.database.table("dots").insert({"id": 3000, "name": "nowhere"})
        assert sorted(engine.execute("SELECT id FROM dots WHERE x > 90").rows) == [
            (46,), (47,), (48,), (49,)
        ]
        assert engine.execute("SELECT id FROM dots WHERE NOT (x > 90) AND id > 2000").rows == []
        assert engine.execute("SELECT id FROM dots WHERE x IS NULL").rows == [(3000,)]

    def test_queries_executed_counter(self, engine):
        before = engine.queries_executed
        engine.execute("SELECT id FROM dots")
        assert engine.queries_executed == before + 1
