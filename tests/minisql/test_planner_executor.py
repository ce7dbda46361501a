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
    eng = SQLEngine(db)
    eng.execute("CREATE TABLE dots (id int, x float, y float, name text, bbox bbox)")
    eng.execute("CREATE INDEX dots_id ON dots (id)")
    eng.execute("CREATE INDEX dots_bbox ON dots (bbox) USING rtree")
    for i in range(50):
        x, y = i * 2.0, i * 1.0
        eng.execute(
            f"INSERT INTO dots VALUES ({i}, {x}, {y}, 'dot{i}', "
            f"bbox({x - 1}, {y - 1}, {x + 1}, {y + 1}))"
        )
    eng.execute("CREATE TABLE mapping (tuple_id int, tile_id int)")
    eng.execute("CREATE INDEX mapping_tile ON mapping (tile_id)")
    eng.execute("CREATE INDEX mapping_tuple ON mapping (tuple_id)")
    for i in range(50):
        eng.execute(f"INSERT INTO mapping VALUES ({i}, {i // 10})")
    return eng


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

    def test_order_by_and_limit(self, engine):
        result = engine.execute("SELECT id FROM dots ORDER BY id DESC LIMIT 3")
        assert [row[0] for row in result.rows] == [49, 48, 47]

    def test_offset(self, engine):
        result = engine.execute("SELECT id FROM dots ORDER BY id LIMIT 2 OFFSET 10")
        assert [row[0] for row in result.rows] == [10, 11]

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT tile_id FROM mapping ORDER BY tile_id")
        assert [row[0] for row in result.rows] == [0, 1, 2, 3, 4]

    def test_aggregates_without_group(self, engine):
        result = engine.execute("SELECT count(*), min(x), max(x), avg(x) FROM dots")
        count, minimum, maximum, average = result.rows[0]
        assert count == 50
        assert minimum == 0.0
        assert maximum == 98.0
        assert average == pytest.approx(49.0)

    def test_count_of_column_skips_nulls(self, engine):
        engine.execute("INSERT INTO dots VALUES (99, null, null, null, null)")
        result = engine.execute("SELECT count(x), count(*) FROM dots")
        assert result.rows[0] == (50, 51)

    def test_group_by_with_aggregate(self, engine):
        result = engine.execute(
            "SELECT tile_id, count(*) AS n FROM mapping GROUP BY tile_id ORDER BY tile_id"
        )
        assert result.rows == [(0, 10), (1, 10), (2, 10), (3, 10), (4, 10)]

    def test_join_through_index(self, engine):
        result = engine.execute(
            "SELECT d.id FROM mapping m JOIN dots d ON m.tuple_id = d.id "
            "WHERE m.tile_id = 2 ORDER BY d.id"
        )
        assert [row[0] for row in result.rows] == list(range(20, 30))

    def test_join_without_index_uses_hash_join(self, engine):
        engine.execute("CREATE TABLE extra (k int, label text)")
        engine.execute("INSERT INTO extra VALUES (1, 'one'), (2, 'two')")
        result = engine.execute(
            "SELECT d.id, e.label FROM dots d JOIN extra e ON d.id = e.k ORDER BY d.id"
        )
        assert result.rows == [(1, "one"), (2, "two")]

    def test_select_constant_expression(self, engine):
        result = engine.execute("SELECT 1 + 1 AS two")
        assert result.rows == [(2,)]

    def test_scalar_helper(self, engine):
        assert engine.execute("SELECT count(*) FROM dots").scalar() == 50
        with pytest.raises(SQLExecutionError):
            engine.execute("SELECT id, x FROM dots").scalar()

    def test_to_dicts(self, engine):
        rows = engine.execute("SELECT id, name FROM dots WHERE id = 7").to_dicts()
        assert rows == [{"id": 7, "name": "dot7"}]

    def test_in_list_via_index(self, engine):
        result = engine.execute("SELECT id FROM dots WHERE id IN (3, 5, 7) ORDER BY id")
        assert [row[0] for row in result.rows] == [3, 5, 7]
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
        engine.execute("CREATE TABLE a (id int, v int)")
        engine.execute("CREATE TABLE b (id int, v int, w int)")
        engine.execute("INSERT INTO a VALUES (1, 10), (2, 20)")
        engine.execute("INSERT INTO b VALUES (1, 100, 7), (2, 200, 8)")
        return engine

    @pytest.mark.parametrize("run", ["execute", "explain"])
    def test_bare_name_in_both_join_sides_is_ambiguous(self, twins, run):
        with pytest.raises(SQLExecutionError, match="ambiguous column reference"):
            getattr(twins, run)("SELECT v FROM a JOIN b ON a.id = b.id")
        with pytest.raises(SQLExecutionError, match="ambiguous column reference"):
            getattr(twins, run)("SELECT a.v FROM a JOIN b ON a.id = b.id WHERE v > 0")

    def test_qualified_names_pick_their_side(self, twins):
        result = twins.execute("SELECT a.v, b.v FROM a JOIN b ON a.id = b.id ORDER BY a.v")
        assert result.columns == ["v", "v_1"]
        assert result.rows == [(10, 100), (20, 200)]

    @pytest.mark.parametrize("run", ["execute", "explain"])
    def test_unknown_name_fails_even_when_no_row_matches(self, twins, run):
        for sql in (
            "SELECT nope FROM a WHERE id = 99",
            "SELECT id FROM a WHERE nope = 1 AND id = 99",
            "SELECT id FROM a WHERE id = 99 ORDER BY nope",
            "SELECT count(nope) FROM a WHERE id = 99",
            "SELECT b.id FROM a WHERE id = 99",
        ):
            with pytest.raises(SQLExecutionError, match="unknown column reference"):
                getattr(twins, run)(sql)

    def test_insert_rejects_unknown_names_before_touching_a_row(self, twins):
        with pytest.raises(SQLExecutionError, match="unknown column reference"):
            twins.execute("INSERT INTO a VALUES (3, nope + 1)")
        with pytest.raises(SQLExecutionError, match="unknown column reference"):
            twins.execute("INSERT INTO a VALUES (3, 30), (4, nope)")  # the first row too
        assert twins.execute("SELECT id, v FROM a ORDER BY id").rows == [(1, 10), (2, 20)]

    def test_select_star_over_a_join_lists_each_bare_name_once(self, twins):
        result = twins.execute("SELECT * FROM a JOIN b ON a.id = b.id ORDER BY a.id")
        assert result.columns == ["id", "v", "w"]  # outer columns, then the inner's new names
        assert result.rows == [(1, 10, 7), (2, 20, 8)]


class TestExecutorModification:
    def test_insert_returns_rowcount_and_its_rows_are_indexed(self, engine):
        result = engine.execute(
            "INSERT INTO dots VALUES (1000, 0, 0, 'a', bbox(500, 500, 501, 501)), "
            "(1001, 0, 0, 'b', bbox(500, 500, 501, 501))"
        )
        assert result.rowcount == 2
        assert engine.execute("SELECT name FROM dots WHERE id = 1001").rows == [("b",)]
        spatial = engine.execute("SELECT id FROM dots WHERE intersects(bbox, 500, 500, 501, 501)")
        assert spatial.access_path == "spatial" and sorted(spatial.rows) == [(1000,), (1001,)]

    def test_insert_with_column_list(self, engine):
        engine.execute("INSERT INTO dots (id, name) VALUES (2000, 'partial')")
        row = engine.execute("SELECT x, name FROM dots WHERE id = 2000").rows[0]
        assert row == (None, "partial")

    def test_a_null_key_is_stored_but_not_indexed(self, engine):
        engine.execute("INSERT INTO dots (name) VALUES ('keyless')")
        assert engine.execute("SELECT id FROM dots WHERE name = 'keyless'").rows == [(None,)]
        assert engine.execute("SELECT count(*) FROM dots").rows == [(51,)]
        assert len(engine.database.table("dots").get_index("dots_id").index) == 50
        assert len(engine.database.table("dots").get_index("dots_bbox").index) == 50

    def test_a_multi_row_insert_is_one_load(self, engine):
        table = engine.database.table("dots")
        index = table.get_index("dots_id").index
        values = ", ".join(f"({i}, 0, 0, 'n{i}', bbox(0, 0, 1, 1))" for i in range(100, 110))
        with mock.patch.object(index, "bulk_load", wraps=index.bulk_load) as build:
            assert engine.execute(f"INSERT INTO dots VALUES {values}").rowcount == 10
        assert build.call_count == 1  # the ten rows went in together: one rebuild
        found = engine.execute("SELECT id FROM dots WHERE id IN (100, 105, 109)").rows
        assert sorted(found) == [(100,), (105,), (109,)]

    def test_a_comparison_with_null_filters_the_row_out(self, engine):
        engine.execute("INSERT INTO dots (id, name) VALUES (3000, 'nowhere')")
        assert engine.execute("SELECT id FROM dots WHERE x > 90 ORDER BY id").rows == [
            (46,), (47,), (48,), (49,)
        ]
        assert engine.execute("SELECT id FROM dots WHERE NOT (x > 90) AND id > 2000").rows == []
        assert engine.execute("SELECT id FROM dots WHERE x IS NULL").rows == [(3000,)]

    def test_insert_arity_mismatch_raises(self, engine):
        with pytest.raises(SQLExecutionError):
            engine.execute("INSERT INTO dots (id, name) VALUES (1)")

    def test_queries_executed_counter(self, engine):
        before = engine.queries_executed
        engine.execute("SELECT count(*) FROM dots")
        assert engine.queries_executed == before + 1
