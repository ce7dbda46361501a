"""Abstract syntax tree nodes for the mini-SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean or NULL."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expression):
    """The ``index``-th ``?`` of a statement (from 0): a constant whose value
    arrives with each execution of the prepared statement."""

    index: int


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to ``column`` or ``table.column``."""

    column: str
    table: str | None = None

    def display(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operation: comparison, arithmetic, AND/OR."""

    operator: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT / unary minus."""

    operator: str
    operand: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call, e.g. ``intersects(bbox, 0, 0, 100, 100)``."""

    name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


# ---------------------------------------------------------------------------
# The statement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """A table reference with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table ON left = right`` (inner equi-joins only)."""

    table: TableRef
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class SelectItem:
    """One projection item: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None


@dataclass(frozen=True)
class SelectStatement:
    """``SELECT (* | items) FROM table [JOIN ...]... [WHERE ...]``: the one
    statement the dialect has."""

    items: tuple[SelectItem, ...]
    table: TableRef
    joins: tuple[JoinClause, ...] = ()
    where: Expression | None = None
    select_star: bool = False
