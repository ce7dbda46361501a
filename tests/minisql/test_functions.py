"""Tests for expression evaluation and predicate analysis."""

import pytest

from repro.errors import SQLExecutionError
from repro.minisql.ast import ColumnRef, Literal
from repro.minisql.functions import (
    Layout,
    as_key_lookup,
    as_spatial_lookup,
    combine_conjuncts,
    compile_expression,
    constant_value,
    split_conjuncts,
)
from repro.minisql.parser import parse_expression


def compiled(expression, row: dict, binds: tuple = ()):
    """Compile against the layout ``row``'s keys spell (``"t.x"`` is column
    ``x`` of binding ``t``) and apply to its values and ``binds``."""
    slots = []
    for key in row:
        binding, _, column = key.rpartition(".")
        slots.append((binding or None, binding or None, column))
    return compile_expression(expression, Layout(tuple(slots)))(tuple(row.values()), binds)


def ev(text: str, row: dict | None = None):
    return compiled(parse_expression(text), row or {})


class TestEvaluate:
    def test_arithmetic(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("7 % 3") == 1
        assert ev("8 / 2") == 4

    def test_division_by_zero_raises(self):
        with pytest.raises(SQLExecutionError):
            ev("1 / 0")

    def test_comparisons(self):
        assert ev("1 < 2") is True
        assert ev("2 <= 2") is True
        assert ev("3 != 4") is True
        assert ev("'a' = 'a'") is True

    def test_null_propagation(self):
        assert ev("null + 1") is None
        assert ev("null = null") is None
        assert ev("x > 1", {"x": None}) is None

    def test_and_or_short_circuit_with_null(self):
        assert ev("false AND null") is False
        assert ev("true OR null") is True
        assert ev("true AND null") is None

    def test_not(self):
        assert ev("NOT true") is False
        assert ev("NOT null") is None

    def test_between_and_in(self):
        assert ev("5 BETWEEN 1 AND 10") is True
        assert ev("x IN (1, 2, 3)", {"x": 2}) is True
        assert ev("x NOT IN (1, 2, 3)", {"x": 9}) is True

    def test_is_null(self):
        assert ev("x IS NULL", {"x": None}) is True
        assert ev("x IS NOT NULL", {"x": 1}) is True

    def test_column_lookup_qualified_and_bare(self):
        row = {"t.x": 5}
        assert ev("x", row) == 5
        assert ev("t.x", row) == 5

    def test_bare_lookup_falls_back_to_single_qualified(self):
        assert compiled(ColumnRef(column="x"), {"t.x": 3, "t.y": 4}) == 3

    def test_ambiguous_bare_lookup_raises(self):
        with pytest.raises(SQLExecutionError, match="ambiguous"):
            compiled(ColumnRef(column="x"), {"a.x": 1, "b.x": 2})
        assert ev("b.x", {"a.x": 1, "b.x": 2}) == 2

    def test_names_resolve_when_compiled_not_when_a_row_flows(self):
        with pytest.raises(SQLExecutionError, match="unknown column"):
            compile_expression(parse_expression("missing > 1"), Layout())

    def test_unknown_column_raises(self):
        with pytest.raises(SQLExecutionError):
            ev("missing", {"x": 1})

    def test_intersects_with_bounds(self):
        row = {"bbox": (0, 0, 10, 10)}
        assert ev("intersects(bbox, 5, 5, 20, 20)", row) is True
        assert ev("intersects(bbox, 11, 11, 20, 20)", row) is False

    def test_intersects_null_bbox_is_false(self):
        assert ev("intersects(bbox, 0, 0, 1, 1)", {"bbox": None}) is False

    def test_bbox_constructor(self):
        assert ev("bbox(1, 2, 3, 4)") == (1.0, 2.0, 3.0, 4.0)

    def test_scalar_helpers(self):
        assert ev("abs(-3)") == 3
        assert ev("floor(2.7)") == 2
        assert ev("ceil(2.1)") == 3

    def test_unknown_function_raises(self):
        with pytest.raises(SQLExecutionError):
            ev("frobnicate(1)")


class TestPredicateAnalysis:
    def test_split_and_combine_conjuncts(self):
        expression = parse_expression("a = 1 AND b = 2 AND c = 3")
        conjuncts = split_conjuncts(expression)
        assert len(conjuncts) == 3
        rebuilt = combine_conjuncts(conjuncts)
        assert compiled(rebuilt, {"a": 1, "b": 2, "c": 3}) is True
        assert compiled(rebuilt, {"a": 1, "b": 2, "c": 4}) is False

    def test_split_none(self):
        assert split_conjuncts(None) == []
        assert combine_conjuncts([]) is None

    def test_or_is_not_split(self):
        assert len(split_conjuncts(parse_expression("a = 1 OR b = 2"))) == 1

    def test_as_key_lookup_equality(self):
        column, keys = as_key_lookup(parse_expression("id = 5"))
        assert column.column == "id"
        assert keys == [Literal(5)]

    def test_as_key_lookup_reversed(self):
        column, keys = as_key_lookup(parse_expression("5 = id"))
        assert column.column == "id"

    def test_as_key_lookup_in_list(self):
        column, keys = as_key_lookup(parse_expression("id IN (1, 2, 3)"))
        assert keys == [Literal(1), Literal(2), Literal(3)]

    def test_as_key_lookup_takes_placeholders_and_negated_constants(self):
        column, keys = as_key_lookup(parse_expression("id IN (?, -2, -?)"))
        assert column.column == "id"
        assert [constant_value(key)((7, 9)) for key in keys] == [7, -2, -9]

    def test_as_key_lookup_rejects_non_literal(self):
        assert as_key_lookup(parse_expression("id = other_col")) is None
        assert as_key_lookup(parse_expression("id > 5")) is None

    def test_as_spatial_lookup(self):
        result = as_spatial_lookup(parse_expression("intersects(bbox, 0, 0, 10, 20)"))
        assert result is not None
        column, bounds = result
        assert column.column == "bbox"
        assert bounds == (Literal(0), Literal(0), Literal(10), Literal(20))

    def test_as_spatial_lookup_takes_placeholders(self):
        _, bounds = as_spatial_lookup(parse_expression("intersects(bbox, ?, 0, ?, -?)"))
        assert [constant_value(bound)((1, 2, 3)) for bound in bounds] == [1, 0, 2, -3]

    def test_as_spatial_lookup_rejects_non_literal_bounds(self):
        assert as_spatial_lookup(parse_expression("intersects(bbox, 0, 0, w, h)")) is None

    def test_as_spatial_lookup_rejects_other_functions(self):
        assert as_spatial_lookup(parse_expression("count(*)")) is None
