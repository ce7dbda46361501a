"""Prepared statements: parse and plan once, bind and execute many times."""

import sys
import threading

import pytest

from repro.errors import SQLExecutionError, SQLPlanError, SQLSyntaxError, UnknownTableError
from repro.minisql import SQLEngine
from repro.minisql.ast import BinaryOp, ColumnRef, Parameter
from repro.minisql.lexer import TokenType, tokenize
from repro.minisql.parser import parse, parse_parameterised
from repro.storage.database import Database


@pytest.fixture()
def engine() -> SQLEngine:
    database = Database()
    dots = database.create_and_load(
        "dots",
        [("id", "int"), ("tile", "int"), ("x", "float"), ("bbox", "bbox")],
        [(i, i // 10, i * 2.0, (i * 2.0 - 1, 0.0, i * 2.0 + 1, 1.0)) for i in range(200)],
    )
    dots.create_index("dots_id", "id", "btree", unique=True)
    dots.create_index("dots_tile", "tile", "btree")
    dots.create_index("dots_bbox", "bbox", "rtree")
    return SQLEngine(database)


class TestPlaceholders:
    def test_question_mark_is_its_own_token(self):
        kinds = [token.type for token in tokenize("id = ?")]
        assert kinds == [TokenType.IDENTIFIER, TokenType.OPERATOR, TokenType.PLACEHOLDER, TokenType.EOF]

    def test_placeholders_are_numbered_in_reading_order(self):
        statement, count = parse_parameterised("SELECT x + ? FROM dots WHERE id = ? AND tile IN (?, 3)")
        assert count == 3
        assert statement.items[0].expression == BinaryOp("+", ColumnRef("x"), Parameter(0))
        assert parse("SELECT 1") == parse_parameterised("SELECT 1")[0]

    def test_a_placeholder_is_not_an_integer_or_a_name(self):
        for sql in ("SELECT id FROM dots LIMIT ?", "SELECT id FROM ?", "SELECT id FROM dots WHERE ?? = 1"):
            with pytest.raises(SQLSyntaxError):
                parse(sql)


class TestPrepareBindExecute:
    def test_one_statement_many_values(self, engine):
        by_id = engine.prepare("SELECT id, x FROM dots WHERE id = ?")
        assert by_id.parameter_count == 1
        for key in (0, 7, 199):
            assert engine.execute(by_id.bind(key)).rows == [(key, key * 2.0)]
        assert engine.execute(by_id.bind(1234)).rows == []
        assert engine.execute(by_id.bind(None)).rows == []  # ``= NULL`` matches nothing

    def test_access_path_is_chosen_once_and_reads_the_binds(self, engine):
        spatial = engine.prepare("SELECT id FROM dots WHERE intersects(bbox, ?, ?, ?, ?) AND x < ?")
        assert spatial.planned().access_path == "spatial"
        assert spatial.planned() is spatial.planned()
        bound = spatial.bind(9.5, 0, 20.5, 1, 18.0)
        assert sorted(engine.execute(bound).rows) == [(5,), (6,), (7,), (8,)]
        assert "SpatialScan(dots as dots, bbox ∩ (9.5, 0.0, 20.5, 1.0))" in engine.explain(bound)
        in_list = engine.prepare("SELECT id FROM dots WHERE id IN (?, ?, 3, ?)")
        assert "id in [5, 3]" in engine.explain(in_list.bind(5, 5, None))  # repeats and NULLs dropped
        assert engine.execute(in_list.bind(5, 5, None)).rows == [(5,), (3,)]

    def test_text_is_prepared_bound_to_nothing_and_run(self, engine):
        before = engine.queries_executed
        text = engine.execute("SELECT id FROM dots WHERE tile = 4 ORDER BY id")
        bound = engine.execute(engine.prepare("SELECT id FROM dots WHERE tile = ? ORDER BY id").bind(4))
        assert text.rows == bound.rows == [(i,) for i in range(40, 50)]
        assert text.access_path == bound.access_path == "key"
        assert engine.queries_executed == before + 2

    def test_wrong_number_of_values_is_a_typed_error(self, engine):
        statement = engine.prepare("SELECT id FROM dots WHERE id = ? OR x > ?")
        with pytest.raises(SQLExecutionError, match=r"takes 2 parameter\(s\), 1 bound"):
            statement.bind(1)
        with pytest.raises(SQLExecutionError, match=r"takes 1 parameter\(s\), 0 bound"):
            engine.explain("SELECT id FROM dots WHERE id = ?")

    def test_bad_rectangles_are_typed_errors_at_execution(self, engine):
        spatial = engine.prepare("SELECT id FROM dots WHERE intersects(bbox, ?, 0, ?, 1)")
        with pytest.raises(SQLPlanError, match="invalid intersects"):
            engine.execute(spatial.bind(10, 5))
        with pytest.raises(SQLExecutionError, match="must not be NULL"):
            engine.execute(spatial.bind(None, 5))
        assert len(engine.execute(spatial.bind(5, 10))) > 0  # the statement is none the worse

    def test_inserts_take_binds(self, engine):
        insert = engine.prepare("INSERT INTO dots VALUES (?, ?, ?, bbox(?, 0, ?, 1))")
        assert engine.execute(insert.bind(500, 77, 1.5, 0.5, 2.5)).rowcount == 1
        assert engine.execute(insert.bind(501, 78, 2.5, 1.5, 3.5)).rowcount == 1
        assert engine.execute("SELECT id, x, bbox FROM dots WHERE tile = 77").rows == [
            (500, 1.5, (0.5, 0.0, 2.5, 1.0))
        ]
        assert engine.execute("SELECT count(*) FROM dots").scalar() == 202


class TestConcurrentExecutions:
    def test_threads_sharing_a_statement_never_see_each_others_values(self, engine):
        """The plan is shared; the binds travel with each execution."""
        statement = engine.prepare(
            "SELECT id, x + ? AS shifted FROM dots WHERE tile = ? AND id >= ? ORDER BY id"
        )
        jobs = [(3, 0.5), (11, -100.0), (0, 7.0), (19, 0.25)]  # more threads than cores
        start, failures = threading.Barrier(len(jobs)), []

        def hammer(tile: int, shift: float) -> None:
            expected = [(i, i * 2.0 + shift) for i in range(tile * 10, tile * 10 + 10)]
            start.wait(timeout=30)
            for _ in range(300):
                rows = engine.execute(statement.bind(shift, tile, tile * 10)).rows
                if rows != expected:
                    failures.append((tile, rows))
                    return

        threads = [threading.Thread(target=hammer, args=job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-execution, not between them
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestStaleStatements:
    """A plan made under one catalog version is re-made under the next."""

    SQL = "SELECT id, x FROM dots WHERE tile = ?"

    def fresh(self, engine: SQLEngine, tile: int):
        return engine.execute(self.SQL.replace("?", str(tile)))

    def test_every_catalog_change_moves_the_version(self, engine):
        database, versions = engine.database, []
        for change in (
            lambda: database.create_table("other", [("k", "int")]),
            lambda: database.table("other").create_index("other_k", "k", "btree"),
            lambda: database.table("other").drop_index("other_k"),
            lambda: database.drop_table("other"),
        ):
            change()
            versions.append(database.catalog_version)
        assert versions == sorted(set(versions)) and len(versions) == 4

    def test_drop_index_falls_back_to_a_scan_with_the_same_answer(self, engine):
        statement = engine.prepare(self.SQL)
        before = engine.execute(statement.bind(4))
        assert before.access_path == "key"
        engine.database.table("dots").drop_index("dots_tile")
        after = engine.execute(statement.bind(4))
        assert after.access_path == "seqscan"
        assert sorted(after.rows) == sorted(before.rows) == sorted(self.fresh(engine, 4).rows)

    def test_a_bulk_load_that_rebuilds_the_indexes_is_seen(self, engine):
        statement = engine.prepare(self.SQL)
        assert len(engine.execute(statement.bind(4))) == 10
        engine.database.table("dots").bulk_load([(900, 4, 0.0, None)])  # every index rebuilt
        assert (900, 0.0) in engine.execute(statement.bind(4)).rows

    def test_a_held_key_scan_sees_rows_inserted_after_it(self, engine):
        statement = engine.prepare(self.SQL)
        assert engine.execute(statement.bind(25)).rows == []
        engine.execute("INSERT INTO dots VALUES (901, 25, 7.5, NULL), (902, 25, 8.5, NULL)")
        result = engine.execute(statement.bind(25))
        assert result.access_path == "key" and result.rows == [(901, 7.5), (902, 8.5)]

    def test_a_held_spatial_scan_sees_rows_inserted_after_it(self, engine):
        statement = engine.prepare("SELECT id FROM dots WHERE intersects(bbox, ?, ?, ?, ?)")
        assert engine.execute(statement.bind(5000.0, 5000.0, 5001.0, 5001.0)).rows == []
        engine.database.table("dots").insert((903, 0, 0.0, (5000.0, 5000.0, 5002.0, 5002.0)))
        result = engine.execute(statement.bind(5000.0, 5000.0, 5001.0, 5001.0))
        assert result.access_path == "spatial" and result.rows == [(903,)]

    def test_create_index_is_picked_up(self, engine):
        statement = engine.prepare("SELECT id FROM dots WHERE x = ?")
        assert engine.execute(statement.bind(8.0)).access_path == "seqscan"
        engine.execute("CREATE INDEX dots_x ON dots (x)")
        assert engine.execute(statement.bind(8.0)).access_path == "key"
        assert engine.execute(statement.bind(8.0)).rows == [(4,)]

    def test_drop_table_and_recreate_serves_the_new_table(self, engine):
        statement = engine.prepare(self.SQL)
        engine.execute(statement.bind(4))
        engine.database.drop_table("dots")
        with pytest.raises(UnknownTableError):
            engine.execute(statement.bind(4))
        # A different shape under the old name: column order changed, no index at all.
        engine.database.create_and_load(
            "dots", [("x", "float"), ("id", "int"), ("tile", "int")], [(0.25, 1, 4), (0.5, 2, 5)]
        )
        assert engine.execute(statement.bind(4)).rows == self.fresh(engine, 4).rows == [(1, 0.25)]

    def test_a_join_follows_its_inner_index(self, engine):
        engine.database.create_and_load("marks", [("dot", "int"), ("label", "text")],
                                        [(41, "a"), (41, "b"), (45, "c"), (999, "d")])
        engine.database.table("marks").create_index("marks_dot", "dot", "btree")
        join = engine.prepare(
            "SELECT d.id, m.label FROM dots d JOIN marks m ON d.id = m.dot WHERE d.tile = ?"
        )
        expected = [(41, "a"), (41, "b"), (45, "c")]
        assert "IndexNLJoin" in engine.explain(join.bind(4))
        assert engine.execute(join.bind(4)).rows == expected
        engine.database.table("marks").drop_index("marks_dot")
        assert "HashJoin" in engine.explain(join.bind(4))
        assert engine.execute(join.bind(4)).rows == expected
        engine.database.table("marks").create_index("marks_dot_again", "dot", "btree")
        assert "IndexNLJoin" in engine.explain(join.bind(4))
        assert engine.execute(join.bind(4)).rows == expected
