"""Differential property tests for the compiled row coercer.

``TableSchema.coerce_row`` runs a coercer compiled once per schema: a row
whose cells already have their stored types passes without a call per
cell, and every other row goes value by value through ``coerce_value``.
Here it is checked against that per-cell reference on generated schemas
(INTEGER, FLOAT, TEXT and BBOX columns) and generated rows: both must
return the same tuple -- the same values of the same types -- or raise the
same exception type with the same message.  The rows mix exactly-typed
cells with every kind the fast path must hand to the reference: NULLs,
``bool``, an int bound for a FLOAT, an ``IntEnum`` and a float subclass,
list, 3-element, inverted, NaN and infinite boxes, a string coordinate,
and a row of the wrong arity.
"""

from __future__ import annotations

import enum
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.storage.schema import TableSchema
from repro.storage.types import ColumnType, coerce_value


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Real(float):
    """A float subclass: coerced to a plain float, never stored as itself."""


def reference(schema: TableSchema, values) -> tuple:
    """The per-cell reference: the arity, then ``coerce_value`` on each cell."""
    if len(values) != len(schema.columns):
        raise SchemaError(
            f"table {schema.name!r} expects {len(schema.columns)} values, got {len(values)}"
        )
    return tuple(
        coerce_value(value, column.type, column.name)
        for value, column in zip(values, schema.columns)
    )


def shape(value):
    """``value`` with the type of every part spelled out (``1 == 1.0``, and
    a NaN equals nothing, so plain equality would hide a difference)."""
    if isinstance(value, tuple):
        return (type(value), tuple(shape(part) for part in value))
    return (type(value), repr(value))


def outcome(coerce, values):
    try:
        return ("returned", shape(coerce(values)))
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(error), str(error))


#: Cells the fast path must not take: each converts or fails in the reference.
ODD_CELLS = [
    None,
    True,
    False,
    3,
    Level.HIGH,
    Real(2.5),
    "text",
    [0.0, 0.0, 1.0, 1.0],
    (0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, 1.0),
    (0.0, math.nan, 1.0, 1.0),
    (-math.inf, -math.inf, math.inf, math.inf),
    (0, 0, 1, 1),
    (True, 0.0, 1.0, 1.0),
    ("2.0", 0.0, 1.0, 1.0),
    ("a", 0.0, 1.0, 1.0),
    (Real(0.0), 0.0, 1.0, 1.0),
    (0.0, 0.0, 1.0, 1.0, 2.0),
]

any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
valid_box = st.tuples(
    st.floats(allow_nan=False, width=64), st.floats(allow_nan=False, width=64),
    st.floats(allow_nan=False, width=64), st.floats(allow_nan=False, width=64),
).map(lambda c: (min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])))
STORED = {
    ColumnType.INTEGER: st.integers(-(2**63), 2**63 - 1),
    ColumnType.FLOAT: any_float,
    ColumnType.TEXT: st.text(max_size=8),
    ColumnType.BBOX: st.one_of(valid_box, st.tuples(any_float, any_float, any_float, any_float)),
}

schemas = st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5).map(
    lambda types: TableSchema.build("t", [(f"c{i}", t) for i, t in enumerate(types)])
)


@st.composite
def schema_and_row(draw):
    schema = draw(schemas)
    cells = [
        draw(st.one_of(STORED[column.type], STORED[column.type], st.sampled_from(ODD_CELLS)))
        for column in schema.columns
    ]
    arity = draw(st.sampled_from(["exact"] * 6 + ["short", "long"]))
    if arity == "short":
        cells = cells[:-1]
    elif arity == "long":
        cells.append(draw(st.sampled_from([1, 1.0, None])))
    container = draw(st.sampled_from([tuple, list]))
    return schema, container(cells)


@given(schema_and_row())
@settings(max_examples=400, deadline=None)
def test_the_compiled_coercer_matches_the_per_cell_reference(case):
    schema, values = case
    assert outcome(schema.coerce_row, values) == outcome(lambda v: reference(schema, v), values)


ONE_OF_EACH = TableSchema.build(
    "t", [("i", "integer"), ("f", "float"), ("s", "text"), ("b", "bbox")]
)
GOOD_ROW = (1, 2.0, "x", (0.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("cell", ODD_CELLS, ids=repr)
def test_every_odd_cell_in_every_column_matches_the_reference(position, cell):
    values = list(GOOD_ROW)
    values[position] = cell
    for row in (tuple(values), values):
        assert outcome(ONE_OF_EACH.coerce_row, row) == outcome(
            lambda v: reference(ONE_OF_EACH, v), row
        )


@pytest.mark.parametrize("values", [GOOD_ROW[:3], (*GOOD_ROW, None), ()], ids=len)
def test_a_wrong_arity_is_refused_with_the_reference_message(values):
    with pytest.raises(SchemaError, match=f"expects 4 values, got {len(values)}$"):
        ONE_OF_EACH.coerce_row(values)


def test_an_exactly_typed_row_comes_back_as_a_tuple():
    assert ONE_OF_EACH.coerce_row(GOOD_ROW) is GOOD_ROW
    assert ONE_OF_EACH.coerce_row(list(GOOD_ROW)) == GOOD_ROW
    assert type(ONE_OF_EACH.coerce_row(list(GOOD_ROW))) is tuple


def test_cells_that_only_convert_come_back_in_their_stored_types():
    row = ONE_OF_EACH.coerce_row((Level.HIGH, 3, "x", [0, 0, Real(1.5), 1]))
    assert shape(row) == shape((7, 3.0, "x", (0.0, 0.0, 1.5, 1.0)))
