"""Tests for table schemas."""

import pytest

from repro.errors import SchemaError
from repro.storage.schema import Column, TableSchema
from repro.storage.types import ColumnType


@pytest.fixture()
def schema() -> TableSchema:
    return TableSchema.build(
        "dots",
        [("tuple_id", "int"), ("x", "float"), ("name", "text"), ("bbox", "bbox")],
    )


class TestSchemaConstruction:
    def test_build_resolves_type_names(self, schema):
        assert schema.column("x").type is ColumnType.FLOAT
        assert schema.column("bbox").type is ColumnType.BBOX

    def test_column_names_are_lowercased(self):
        schema = TableSchema.build("t", [("Mixed_Case", "int")])
        assert schema.column_names == ["mixed_case"]
        assert schema.has_column("MIXED_CASE")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", [("a", "int"), ("A", "float")])

    def test_empty_table_name_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(name="", columns=[Column("a", ColumnType.INTEGER)])

    def test_invalid_column_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("bad name!", ColumnType.INTEGER)


class TestSchemaLookups:
    def test_column_index(self, schema):
        assert schema.column_index("tuple_id") == 0
        assert schema.column_index("bbox") == 3

    def test_unknown_column_raises(self, schema):
        with pytest.raises(SchemaError):
            schema.column_index("missing")

    def test_len(self, schema):
        assert len(schema) == 4


class TestRowCoercion:
    def test_coerce_row_positional(self, schema):
        row = schema.coerce_row([1, 2.5, "a", (0, 0, 1, 1)])
        assert row == (1, 2.5, "a", (0.0, 0.0, 1.0, 1.0))

    def test_coerce_row_wrong_arity(self, schema):
        with pytest.raises(SchemaError):
            schema.coerce_row([1, 2.5])

    def test_coerce_mapping_fills_missing_with_null(self, schema):
        row = schema.coerce_mapping({"tuple_id": 3, "x": 1.0})
        assert row == (3, 1.0, None, None)

    def test_coerce_mapping_unknown_column(self, schema):
        with pytest.raises(SchemaError):
            schema.coerce_mapping({"nope": 1})


class TestSchemaEvolution:
    def test_with_column(self, schema):
        extended = schema.with_column(Column("extra", ColumnType.FLOAT))
        assert extended.has_column("extra")
        assert not schema.has_column("extra")
