"""The database: a catalog of tables sharing one buffer pool.

This is the offline stand-in for the PostgreSQL instance in the paper's
architecture diagram.  The Kyrix backend server creates raw-data tables,
placement tables and tile-mapping tables here, builds indexes on them, and
answers viewport queries against them (directly through the access-path API
or through the :mod:`repro.minisql` layer).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..config import StorageConfig
from ..errors import DuplicateTableError, UnknownTableError
from .pager import BufferPool, PagerStats
from .schema import Column, TableSchema
from .table import Table
from .types import ColumnType


class Database:
    """An embedded, in-process database holding named tables."""

    def __init__(self, config: StorageConfig | None = None) -> None:
        self.config = config or StorageConfig()
        self.config.validate()
        self._pool = BufferPool.from_config(self.config)
        self._tables: dict[str, Table] = {}
        #: Moves whenever a table or an index is created or dropped; a plan
        #: made under another value may name what is gone or miss what is new.
        self.catalog_version = 0

    def _catalog_changed(self) -> None:
        self.catalog_version += 1

    # -- catalog ------------------------------------------------------------------

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, str | ColumnType]] | TableSchema,
    ) -> Table:
        """Create a table from ``[(column, type), ...]`` pairs or a schema."""
        key = name.lower()
        if key in self._tables:
            raise DuplicateTableError(f"table {name!r} already exists")
        if isinstance(columns, TableSchema):
            schema = TableSchema(name=key, columns=list(columns.columns))
        else:
            schema = TableSchema.build(key, columns)
        table = Table(schema, self._pool, catalog_changed=self._catalog_changed)
        self._tables[key] = table
        self._catalog_changed()
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise UnknownTableError(f"no table named {name!r}")
        del self._tables[key]
        self._catalog_changed()

    def table(self, name: str) -> Table:
        key = name.lower()
        if key not in self._tables:
            raise UnknownTableError(f"no table named {name!r}")
        return self._tables[key]

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    # -- convenience loaders ---------------------------------------------------------

    def create_and_load(
        self,
        name: str,
        columns: Sequence[tuple[str, str | ColumnType]],
        rows: Iterable[Sequence[Any]],
    ) -> Table:
        """Create a table and bulk-load it in one call."""
        table = self.create_table(name, columns)
        table.bulk_load(rows)
        return table

    # -- engine-level accounting -------------------------------------------------------

    @property
    def pager_stats(self) -> PagerStats:
        return self._pool.stats

    def flush(self) -> None:
        """Flush the buffer pool (write back all dirty pages)."""
        self._pool.flush()

    def describe(self) -> dict[str, dict[str, Any]]:
        """Return a catalog summary: per table, its columns, row count and indexes."""
        description: dict[str, dict[str, Any]] = {}
        for name, table in sorted(self._tables.items()):
            description[name] = {
                "columns": [(c.name, c.type.value) for c in table.schema.columns],
                "rows": table.row_count,
                "indexes": {
                    info.name: {"column": info.column, "kind": info.kind}
                    for info in table.indexes.values()
                },
            }
        return description
