"""Executor for planned mini-SQL statements.

The physical plan produced by :class:`~repro.minisql.planner.Planner` runs
itself: every node moves flat tuples whose layout, and every expression over
them, was fixed when the node was built.  The engine here drives the root
node into a :class:`ResultSet` and carries out data-modification statements
with the same compiled expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import SQLExecutionError
from ..storage.database import Database
from ..storage.table import Table
from .ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    Expression,
    InsertStatement,
    Statement,
    UpdateStatement,
)
from .functions import Layout, compile_expression, compile_predicate
from .parser import parse
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


class SQLEngine:
    """Parses, plans and executes mini-SQL statements against a database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._planner = Planner(database)
        self.queries_executed = 0

    # -- public API ------------------------------------------------------------

    def execute(self, sql: str) -> ResultSet:
        """Run one SQL statement and return its result set."""
        return self.execute_plan(self._planner.plan(parse(sql)))

    def explain(self, sql: str) -> str:
        """Return the physical plan for a statement without executing it."""
        return self._planner.plan(parse(sql)).root.explain()

    def execute_plan(self, planned: PlannedQuery) -> ResultSet:
        self.queries_executed += 1
        root = planned.root
        if isinstance(root, DataModification):
            return self._execute_modification(root.statement)
        return ResultSet(
            columns=root.layout.names, rows=list(root.rows()), access_path=planned.access_path
        )

    # -- data modification --------------------------------------------------------------

    def _execute_modification(self, statement: Statement) -> ResultSet:
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
            return self._execute_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement)
        raise SQLExecutionError(
            f"unsupported statement {type(statement).__name__}"
        )

    def _execute_insert(self, statement: InsertStatement) -> ResultSet:
        table = self.database.table(statement.table)
        inserted = 0
        for value_tuple in statement.rows:
            values = [compile_expression(expression, Layout())(()) for expression in value_tuple]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise SQLExecutionError(
                        "INSERT column list and VALUES length mismatch"
                    )
                table.insert(dict(zip(statement.columns, values)))
            else:
                table.insert(values)
            inserted += 1
        return ResultSet(columns=[], rows=[], rowcount=inserted)

    def _matching(self, table_name: str, where: Expression | None) -> tuple[Table, Layout, list]:
        """The table, its layout and the ``(rid, row)`` pairs ``where`` selects."""
        table = self.database.table(table_name)
        layout = Layout.of_table(table, table_name)
        matches = compile_predicate(where, layout)
        return table, layout, [(rid, row) for rid, row in table.scan() if matches(row)]

    def _execute_update(self, statement: UpdateStatement) -> ResultSet:
        table, layout, targets = self._matching(statement.table, statement.where)
        assignments = [
            (column, compile_expression(expression, layout))
            for column, expression in statement.assignments
        ]
        for rid, row in targets:
            table.update(rid, {column: evaluate(row) for column, evaluate in assignments})
        return ResultSet(columns=[], rows=[], rowcount=len(targets))

    def _execute_delete(self, statement: DeleteStatement) -> ResultSet:
        table, _, targets = self._matching(statement.table, statement.where)
        for rid, _ in targets:
            table.delete(rid)
        return ResultSet(columns=[], rows=[], rowcount=len(targets))
