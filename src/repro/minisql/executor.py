"""Executor for planned mini-SQL statements.

The physical plan produced by :class:`~repro.minisql.planner.Planner` runs
itself: every node moves flat tuples whose layout, and every expression over
them, was fixed when the node was built.  The engine here drives the root
node into a :class:`ResultSet` and carries out the statements that build
a database -- ``CREATE TABLE``, ``CREATE INDEX`` and ``INSERT`` (an append,
see :meth:`~repro.storage.table.Table.insert`).

There is one way in: :meth:`SQLEngine.prepare` parses and plans a statement
once, :meth:`PreparedStatement.bind` pairs it with the values of its ``?``
placeholders, and :meth:`SQLEngine.execute` runs that pair.  Executing SQL
text is preparing it, binding nothing and running it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import SQLExecutionError
from ..storage.database import Database
from .ast import (
    CreateIndexStatement,
    CreateTableStatement,
    InsertStatement,
    Statement,
)
from .functions import Binds, Layout, compile_expression
from .parser import parse_parameterised
from .planner import DataModification, PlannedQuery, Planner


@dataclass
class ResultSet:
    """Result of executing a statement."""

    columns: list[str]
    rows: list[tuple[Any, ...]]
    rowcount: int = 0
    access_path: str = "seqscan"

    def __post_init__(self) -> None:
        if not self.rowcount:
            self.rowcount = len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as ``{column: value}`` dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLExecutionError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


class PreparedStatement:
    """A statement parsed and planned once, run any number of times.

    The plan -- access path, layouts, index handles, compiled closures -- is
    shared by every execution and holds nothing of any one of them, so
    threads may execute one statement at once.  It was made against one
    version of the catalog; when a table or an index has come or gone since,
    the next execution plans again.
    """

    def __init__(self, sql: str, planner: Planner, database: Database) -> None:
        self.sql = sql
        self._statement, self.parameter_count = parse_parameterised(sql)
        self._planner = planner
        self._database = database
        self._plan = self._make_plan()

    def _make_plan(self) -> tuple[int, PlannedQuery]:
        # The version is read first: a catalog change racing the planner
        # leaves a plan that is found stale, never one that is trusted.
        version = self._database.catalog_version
        return version, self._planner.plan(self._statement)

    def planned(self) -> PlannedQuery:
        """The plan for the catalog as it is now."""
        version, planned = self._plan
        if version != self._database.catalog_version:
            self._plan = version, planned = self._make_plan()  # one reference: atomic
        return planned

    def bind(self, *values: Any) -> "BoundStatement":
        """This statement with ``values`` for its placeholders, in order."""
        if len(values) != self.parameter_count:
            raise SQLExecutionError(
                f"statement takes {self.parameter_count} parameter(s), {len(values)} bound: "
                f"{self.sql!r}"
            )
        return BoundStatement(self, values)


@dataclass(frozen=True)
class BoundStatement:
    """A prepared statement and one execution's values for its placeholders."""

    prepared: PreparedStatement
    values: Binds


class SQLEngine:
    """Parses, plans and executes mini-SQL statements against a database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._planner = Planner(database)
        self.queries_executed = 0

    # -- public API ------------------------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse and plan one statement (``?`` marks a value bound per execution)."""
        return PreparedStatement(sql, self._planner, self.database)

    def _bound(self, statement: str | BoundStatement) -> BoundStatement:
        return self.prepare(statement).bind() if isinstance(statement, str) else statement

    def execute(self, statement: str | BoundStatement) -> ResultSet:
        """Run one statement -- SQL text, or a prepared statement with its
        values bound -- and return its result set."""
        bound = self._bound(statement)
        planned, binds = bound.prepared.planned(), bound.values
        self.queries_executed += 1
        root = planned.root
        if isinstance(root, DataModification):
            return self._execute_modification(root.statement, binds)
        return ResultSet(
            columns=root.layout.names, rows=list(root.rows(binds)), access_path=planned.access_path
        )

    def explain(self, statement: str | BoundStatement) -> str:
        """Return the physical plan for a statement without executing it."""
        bound = self._bound(statement)
        return bound.prepared.planned().root.explain(binds=bound.values)

    # -- data modification --------------------------------------------------------------

    def _execute_modification(self, statement: Statement, binds: Binds) -> ResultSet:
        if isinstance(statement, CreateTableStatement):
            self.database.create_table(statement.table, list(statement.columns))
            return ResultSet(columns=[], rows=[], rowcount=0)
        if isinstance(statement, CreateIndexStatement):
            table = self.database.table(statement.table)
            table.create_index(
                statement.name, statement.column, statement.kind, unique=statement.unique
            )
            return ResultSet(columns=[], rows=[], rowcount=0)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, binds)
        raise SQLExecutionError(
            f"unsupported statement {type(statement).__name__}"
        )

    def _execute_insert(self, statement: InsertStatement, binds: Binds) -> ResultSet:
        """Every VALUES row goes in as one load: a refused row refuses them all."""
        table = self.database.table(statement.table)
        rows = []
        for value_tuple in statement.rows:
            values = [
                compile_expression(expression, Layout())((), binds) for expression in value_tuple
            ]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise SQLExecutionError(
                        "INSERT column list and VALUES length mismatch"
                    )
                values = table.schema.coerce_mapping(dict(zip(statement.columns, values)))
            rows.append(values)
        return ResultSet(columns=[], rows=[], rowcount=table.bulk_load(rows))
