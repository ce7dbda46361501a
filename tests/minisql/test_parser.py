"""Tests for the mini-SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.minisql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    FunctionCall,
    InList,
    InsertStatement,
    IsNull,
    Literal,
    SelectStatement,
)
from repro.minisql.parser import parse, parse_expression


class TestSelectParsing:
    def test_simple_select(self):
        statement = parse("SELECT x, y FROM dots")
        assert isinstance(statement, SelectStatement)
        assert statement.table.name == "dots"
        assert [item.expression.column for item in statement.items] == ["x", "y"]

    def test_select_star(self):
        statement = parse("SELECT * FROM dots")
        assert statement.select_star is True
        assert statement.items == ()

    def test_select_with_alias(self):
        statement = parse("SELECT count(*) AS n FROM dots")
        assert statement.items[0].alias == "n"
        assert statement.items[0].expression.star is True

    def test_table_alias(self):
        statement = parse("SELECT d.x FROM dots d")
        assert statement.table.alias == "d"
        assert statement.items[0].expression.table == "d"

    def test_where_clause(self):
        statement = parse("SELECT x FROM t WHERE x > 5 AND y <= 3")
        assert isinstance(statement.where, BinaryOp)
        assert statement.where.operator == "and"

    def test_order_by_and_limit_offset(self):
        statement = parse("SELECT x FROM t ORDER BY x DESC, y LIMIT 10 OFFSET 5")
        assert statement.order_by[0].descending is True
        assert statement.order_by[1].descending is False
        assert statement.limit == 10
        assert statement.offset == 5

    def test_group_by(self):
        statement = parse("SELECT tile_id, count(*) FROM m GROUP BY tile_id")
        assert len(statement.group_by) == 1

    def test_join_on(self):
        statement = parse(
            "SELECT p.x FROM mapping m JOIN place p ON m.tuple_id = p.tuple_id"
        )
        assert len(statement.joins) == 1
        join = statement.joins[0]
        assert join.table.name == "place"
        assert join.left.column == "tuple_id"
        assert join.right.table == "p"

    def test_non_equi_join_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM a JOIN b ON a.x < b.y")

    def test_distinct(self):
        statement = parse("SELECT DISTINCT x FROM t")
        assert statement.distinct is True

    def test_intersects_function(self):
        statement = parse("SELECT * FROM t WHERE intersects(bbox, 0, 0, 10, 10)")
        assert isinstance(statement.where, FunctionCall)
        assert statement.where.name == "intersects"
        assert len(statement.where.args) == 5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT x FROM t garbage garbage garbage ,")

    def test_semicolon_accepted(self):
        statement = parse("SELECT x FROM t;")
        assert isinstance(statement, SelectStatement)


class TestExpressionParsing:
    def test_precedence_of_and_or(self):
        expression = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expression, BinaryOp)
        assert expression.operator == "or"
        assert expression.right.operator == "and"

    def test_arithmetic_precedence(self):
        expression = parse_expression("1 + 2 * 3")
        assert expression.operator == "+"
        assert expression.right.operator == "*"

    def test_parentheses_override(self):
        expression = parse_expression("(1 + 2) * 3")
        assert expression.operator == "*"

    def test_unary_minus(self):
        expression = parse_expression("-x")
        assert expression.operator == "-"

    def test_between(self):
        expression = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expression, Between)

    def test_in_list(self):
        expression = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expression, InList)
        assert len(expression.items) == 3

    def test_not_in(self):
        expression = parse_expression("x NOT IN (1, 2)")
        assert isinstance(expression, InList)
        assert expression.negated is True

    def test_is_null_and_is_not_null(self):
        assert isinstance(parse_expression("x IS NULL"), IsNull)
        expression = parse_expression("x IS NOT NULL")
        assert expression.negated is True

    def test_literals(self):
        assert parse_expression("42") == Literal(42)
        assert parse_expression("4.5") == Literal(4.5)
        assert parse_expression("'text'") == Literal("text")
        assert parse_expression("null") == Literal(None)
        assert parse_expression("true") == Literal(True)

    def test_qualified_column(self):
        assert parse_expression("t.x") == ColumnRef(column="x", table="t")

    def test_comparison_operator_normalisation(self):
        assert parse_expression("a <> b").operator == "!="
        assert parse_expression("a == b").operator == "="


class TestOtherStatements:
    def test_insert_without_columns(self):
        statement = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(statement, InsertStatement)
        assert statement.columns == ()
        assert len(statement.rows) == 2

    def test_insert_with_columns(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert statement.columns == ("a", "b")

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE t SET a = 1, b = b + 1 WHERE id = 3",
            "DELETE FROM t WHERE x < 0",
            "UPDATE t SET a = 1",
            "DELETE FROM t",
            "update t set a = ? where id = ?",
        ],
    )
    def test_update_and_delete_are_not_statements(self, sql):
        with pytest.raises(SQLSyntaxError, match="expected a statement") as caught:
            parse(sql)
        assert caught.value.position == 0

    def test_create_table(self):
        statement = parse("CREATE TABLE t (a int, b text, c bbox)")
        assert isinstance(statement, CreateTableStatement)
        assert statement.columns == (("a", "int"), ("b", "text"), ("c", "bbox"))

    def test_create_index_with_using(self):
        statement = parse("CREATE INDEX i ON t (bbox) USING rtree")
        assert isinstance(statement, CreateIndexStatement)
        assert statement.kind == "rtree"

    def test_create_unique_index(self):
        statement = parse("CREATE UNIQUE INDEX i ON t (id)")
        assert statement.unique is True

    def test_unknown_statement_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("VACUUM t")
