"""Table schemas for the embedded storage engine.

A schema checks each row it is handed through a coercer compiled once per
schema (:func:`compile_coercer`): a row whose cells already have their
stored types passes in a few C-level steps, and every other row goes value
by value through :func:`~repro.storage.types.coerce_value`, the reference
and the only path that refuses a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import SchemaError
from .types import ColumnType, coerce_value


@dataclass(frozen=True)
class Column:
    """A single column: a name and a :class:`ColumnType`."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if not isinstance(self.type, ColumnType):
            raise SchemaError(f"column {self.name!r}: type must be a ColumnType")


@dataclass
class TableSchema:
    """An ordered set of named, typed columns.

    Column names are case-insensitive and stored lower-cased, mirroring how
    PostgreSQL folds unquoted identifiers.
    """

    name: str
    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        normalized: list[Column] = []
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SchemaError(
                    f"table {self.name!r}: duplicate column {column.name!r}"
                )
            seen.add(lowered)
            normalized.append(Column(lowered, column.type))
        self.columns = normalized
        self._index_by_name = {c.name: i for i, c in enumerate(self.columns)}
        self._coerce = compile_coercer(self)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(cls, name: str, column_specs: Sequence[tuple[str, str | ColumnType]]) -> "TableSchema":
        """Build a schema from ``[(name, type_name), ...]`` pairs."""
        columns = []
        for col_name, col_type in column_specs:
            resolved = (
                col_type
                if isinstance(col_type, ColumnType)
                else ColumnType.parse(col_type)
            )
            columns.append(Column(col_name, resolved))
        return cls(name=name, columns=columns)

    # -- lookups -------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index_by_name

    def column_index(self, name: str) -> int:
        """Return the ordinal position of a column."""
        lowered = name.lower()
        if lowered not in self._index_by_name:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._index_by_name[lowered]

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    # -- row validation -------------------------------------------------------

    def coerce_row(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate and coerce a positional row against this schema."""
        return self._coerce(values)

    def coerce_mapping(self, mapping: dict[str, Any]) -> tuple[Any, ...]:
        """Validate and coerce a ``{column: value}`` mapping; missing columns
        become NULL."""
        unknown = [k for k in mapping if not self.has_column(k)]
        if unknown:
            raise SchemaError(
                f"table {self.name!r} has no column(s): {', '.join(sorted(unknown))}"
            )
        row = [mapping.get(column.name) for column in self.columns]
        return self.coerce_row(row)

    # -- schema evolution ------------------------------------------------------

    def with_column(self, column: Column) -> "TableSchema":
        """Return a new schema with ``column`` appended."""
        return TableSchema(name=self.name, columns=[*self.columns, column])


#: A compiled coercer: ``values -> stored row``.
RowCoercer = Callable[[Sequence[Any]], tuple[Any, ...]]

#: The one Python type a column's stored value has; a BBOX's four floats
#: are checked apart.
_STORED_TYPES = {
    ColumnType.INTEGER: int,
    ColumnType.FLOAT: float,
    ColumnType.TEXT: str,
    ColumnType.BBOX: tuple,
}
_FOUR_FLOATS = (float,) * 4


def compile_coercer(schema: TableSchema) -> RowCoercer:
    """Build the coercer for one schema's rows.

    A tuple whose cells have exactly their stored types -- ``int``,
    ``float``, ``str``, and for a BBOX a tuple of four floats with
    ``xmin <= xmax`` and ``ymin <= ymax`` -- is already coerced and comes
    back as it is, checked without a call per cell.  Anything else (a list,
    a NULL, a ``bool``, an int bound for a FLOAT, a subclass, a list bbox,
    a NaN, a wrong arity) goes to the reference, an arity check and then
    :func:`~repro.storage.types.coerce_value` on each value, which converts
    it or raises exactly as it always has.
    """
    name, columns = schema.name, schema.columns
    expected = tuple(_STORED_TYPES[column.type] for column in columns)
    boxes = [i for i, column in enumerate(columns) if column.type is ColumnType.BBOX]

    def reference(values: Sequence[Any]) -> tuple[Any, ...]:
        if len(values) != len(columns):
            raise SchemaError(
                f"table {name!r} expects {len(columns)} values, got {len(values)}"
            )
        return tuple(
            coerce_value(value, column.type, column.name)
            for value, column in zip(values, columns)
        )

    def coerce(values: Sequence[Any]) -> tuple[Any, ...]:
        if type(values) is tuple and tuple(map(type, values)) == expected:
            for i in boxes:
                box = values[i]
                # A NaN fails a comparison, so it takes the reference's refusal.
                if tuple(map(type, box)) != _FOUR_FLOATS or not (
                    box[0] <= box[2] and box[1] <= box[3]
                ):
                    return reference(values)
            return values
        return reference(values)

    return coerce
