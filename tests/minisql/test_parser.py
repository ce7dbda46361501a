"""Tests for the mini-SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.minisql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    SelectStatement,
)
from repro.minisql.parser import parse, parse_expression

#: Words the lexer reserved before the dialect shrank to one SELECT shape;
#: each is an ordinary identifier now.
FREED_WORDS = [
    "update", "set", "delete", "having", "group", "order", "limit", "offset",
    "distinct", "insert", "into", "values", "create", "table", "index", "using",
    "unique", "asc", "desc", "left", "count", "sum", "avg", "min", "max", "by",
    "intersects",
]


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
        statement = parse("SELECT x + 1 AS n FROM dots")
        assert statement.items[0].alias == "n"
        assert statement.items[0].expression.operator == "+"

    def test_table_alias(self):
        statement = parse("SELECT d.x FROM dots d")
        assert statement.table.alias == "d"
        assert statement.items[0].expression.table == "d"

    def test_where_clause(self):
        statement = parse("SELECT x FROM t WHERE x > 5 AND y <= 3")
        assert isinstance(statement.where, BinaryOp)
        assert statement.where.operator == "and"

    def test_join_on(self):
        statement = parse(
            "SELECT p.x FROM mapping m JOIN place p ON m.tuple_id = p.tuple_id"
        )
        assert len(statement.joins) == 1
        join = statement.joins[0]
        assert join.table.name == "place"
        assert join.left.column == "tuple_id"
        assert join.right.table == "p"

    def test_inner_join_and_as_aliases(self):
        statement = parse(
            "SELECT p.x FROM mapping AS m INNER JOIN place AS p ON m.tuple_id = p.tuple_id"
        )
        assert statement.table.alias == "m"
        assert statement.joins[0].table.alias == "p"
        assert statement.joins[0].left.table == "m"

    @pytest.mark.parametrize("word", FREED_WORDS)
    def test_a_freed_word_is_a_column_name(self, word):
        statement = parse(f"SELECT {word}, t.{word} AS v FROM t WHERE {word} > 1")
        assert statement.items[0].expression == ColumnRef(word)
        assert statement.items[1].expression == ColumnRef(word, "t")
        assert statement.where.left == ColumnRef(word)

    def test_non_equi_join_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM a JOIN b ON a.x < b.y")

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


class TestOutsideTheGrammar:
    """The dialect is one SELECT shape; everything else is a typed syntax
    error carrying the parser's message and position."""

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("INSERT INTO t VALUES (1, 'a')", "expected SELECT"),
            ("CREATE TABLE t (a int)", "expected SELECT"),
            ("CREATE INDEX i ON t (bbox) USING rtree", "expected SELECT"),
            ("UPDATE t SET a = 1 WHERE id = 3", "expected SELECT"),
            ("DELETE FROM t WHERE x < 0", "expected SELECT"),
            ("VACUUM t", "expected SELECT"),
            ("SELECT 1 + 1 AS two", "expected FROM"),
            ("SELECT DISTINCT x FROM t", "expected FROM"),
            ("SELECT count(*) FROM t", "unknown function 'count'"),
            ("SELECT sum(x) FROM t", "unknown function 'sum'"),
            ("SELECT x FROM t GROUP BY x", "unexpected trailing input"),
            ("SELECT x FROM t WHERE x > 1 ORDER BY x", "unexpected trailing input"),
            ("SELECT x FROM t LIMIT 10", "unexpected trailing input"),
            ("SELECT x FROM t LEFT JOIN u ON t.x = u.x", "only inner joins"),
            ("SELECT x FROM t RIGHT JOIN u ON t.x = u.x", "only inner joins"),
        ],
    )
    def test_refused_with_the_reason(self, sql, message):
        with pytest.raises(SQLSyntaxError, match=message):
            parse(sql)

    def test_a_refused_statement_names_where_it_went_wrong(self):
        with pytest.raises(SQLSyntaxError) as caught:
            parse("update t set a = ? where id = ?")
        assert caught.value.position == 0
