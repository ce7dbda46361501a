"""Expression compilation for the mini-SQL executor.

Rows flow between operators as flat tuples.  A :class:`Layout` names what
sits at each offset, and :func:`compile_expression` turns an expression into
a closure over such a tuple and the bind values of the execution under way,
resolving every column reference to its offset once -- so an unknown or
ambiguous name fails when the statement is planned, whether or not a row
ever flows.  A ``?`` reads its value from the binds it is handed, never from
the closure, so one compiled statement serves any number of executions at
once.  SQL three-valued logic is approximated with Python ``None``
propagation, which is sufficient for the predicates Kyrix applications issue.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import SQLExecutionError
from ..storage.rtree import Rect
from ..storage.table import Table
from .ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Parameter,
    UnaryOp,
)

Row = tuple[Any, ...]
#: The values bound to a statement's ``?`` placeholders for one execution.
Binds = tuple[Any, ...]
Evaluator = Callable[[Row, Binds], Any]

#: Names of aggregate functions (compiled by the planner, not here).
AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}


@dataclass(frozen=True)
class Layout:
    """The shape of an operator's output rows: one ``(binding, table,
    column)`` slot per offset (``binding`` and ``table`` are None for a
    computed column)."""

    slots: tuple[tuple[str | None, str | None, str], ...] = ()

    @classmethod
    def of_table(cls, table: Table, binding: str) -> "Layout":
        return cls(tuple((binding, table.name, name) for name in table.schema.column_names))

    def __add__(self, other: "Layout") -> "Layout":
        return Layout(self.slots + other.slots)

    @property
    def names(self) -> list[str]:
        return [column for _, _, column in self.slots]

    def resolve(self, ref: ColumnRef) -> int:
        """The offset ``ref`` names; a bare name must be unique in the row."""
        matches = [
            offset
            for offset, (binding, table, column) in enumerate(self.slots)
            if column == ref.column and (ref.table is None or ref.table in (binding, table))
        ]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise SQLExecutionError(f"ambiguous column reference: {ref.display()!r}")
        raise SQLExecutionError(f"unknown column reference: {ref.display()!r}")


def _intersects(*args: Any) -> bool:
    if len(args) == 5:
        bbox, xmin, ymin, xmax, ymax = args
        if bbox is None:
            return False
        return Rect.from_tuple(bbox).intersects(
            Rect(float(xmin), float(ymin), float(xmax), float(ymax))
        )
    if len(args) == 2:
        left, right = args
        if left is None or right is None:
            return False
        return Rect.from_tuple(left).intersects(Rect.from_tuple(right))
    raise SQLExecutionError("intersects() takes (bbox, x1, y1, x2, y2) or (bbox, bbox)")


def _bbox(*args: Any) -> tuple[float, float, float, float] | None:
    if len(args) != 4:
        raise SQLExecutionError("bbox() takes exactly (xmin, ymin, xmax, ymax)")
    if any(a is None for a in args):
        return None
    return (float(args[0]), float(args[1]), float(args[2]), float(args[3]))


def _null_safe(function: Callable[[Any], Any]) -> Callable[..., Any]:
    return lambda value, *_: None if value is None else function(value)


#: Non-aggregate functions, called with the evaluated arguments.
_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "intersects": _intersects,
    "bbox": _bbox,
    "abs": _null_safe(abs),
    "floor": _null_safe(math.floor),
    "ceil": _null_safe(math.ceil),
    "min": lambda *args: min(args),
    "max": lambda *args: max(args),
}


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise SQLExecutionError("division by zero")
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise SQLExecutionError("modulo by zero")
    return left % right


#: Comparison and arithmetic operators; a NULL operand makes the result NULL.
_BINARY_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "==": operator.eq, "!=": operator.ne, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo,
}


def compile_expression(expression: Expression, layout: Layout) -> Evaluator:
    """Compile ``expression`` into a closure over ``(row, binds)``: a row
    shaped like ``layout`` and the execution's bind values."""
    if isinstance(expression, Literal):
        constant = expression.value
        return lambda row, binds: constant
    if isinstance(expression, Parameter):
        index = expression.index
        return lambda row, binds: binds[index]
    if isinstance(expression, ColumnRef):
        offset = layout.resolve(expression)
        return lambda row, binds: row[offset]
    if isinstance(expression, UnaryOp):
        operand = compile_expression(expression.operand, layout)
        if expression.operator == "not":
            return lambda row, binds: None if (value := operand(row, binds)) is None else not value
        if expression.operator == "-":
            return lambda row, binds: None if (value := operand(row, binds)) is None else -value
        raise SQLExecutionError(f"unknown unary operator {expression.operator!r}")
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, layout)
    if isinstance(expression, IsNull):
        operand, negated = compile_expression(expression.operand, layout), expression.negated
        return lambda row, binds: (operand(row, binds) is None) != negated
    if isinstance(expression, Between):
        operand, negated = compile_expression(expression.operand, layout), expression.negated
        low = compile_expression(expression.low, layout)
        high = compile_expression(expression.high, layout)

        def between(row: Row, binds: Binds) -> bool | None:
            value, lower, upper = operand(row, binds), low(row, binds), high(row, binds)
            if value is None or lower is None or upper is None:
                return None
            return (lower <= value <= upper) != negated

        return between
    if isinstance(expression, InList):
        operand, negated = compile_expression(expression.operand, layout), expression.negated
        items = [compile_expression(item, layout) for item in expression.items]

        def in_list(row: Row, binds: Binds) -> bool | None:
            value = operand(row, binds)
            if value is None:
                return None
            return (value in [item(row, binds) for item in items]) != negated

        return in_list
    if isinstance(expression, FunctionCall):
        args = [compile_expression(arg, layout) for arg in expression.args]
        if expression.name in AGGREGATE_FUNCTIONS and len(args) == 1:
            # Aggregates over rows are compiled by the planner; an aggregate
            # of one value in a per-row position is that value.
            return args[0]
        function = _SCALAR_FUNCTIONS.get(expression.name)
        if function is None:
            raise SQLExecutionError(f"unknown function: {expression.name!r}")
        return lambda row, binds: function(*[arg(row, binds) for arg in args])
    raise SQLExecutionError(f"cannot evaluate expression of type {type(expression).__name__}")


def _compile_binary(expression: BinaryOp, layout: Layout) -> Evaluator:
    left = compile_expression(expression.left, layout)
    right = compile_expression(expression.right, layout)
    if expression.operator in ("and", "or"):
        # AND is decided by a False operand, OR by a True one, NULL or not.
        decisive = expression.operator == "or"

        def connective(row: Row, binds: Binds) -> bool | None:
            first = left(row, binds)
            if first is decisive:
                return decisive
            second = right(row, binds)
            if second is decisive:
                return decisive
            if first is None or second is None:
                return None
            return (bool(first) or bool(second)) if decisive else (bool(first) and bool(second))

        return connective
    apply = _BINARY_OPERATORS.get(expression.operator)
    if apply is None:
        raise SQLExecutionError(f"unknown operator {expression.operator!r}")

    def binary(row: Row, binds: Binds) -> Any:
        first, second = left(row, binds), right(row, binds)
        if first is None or second is None:
            return None
        return apply(first, second)

    return binary


# ---------------------------------------------------------------------------
# Predicate analysis helpers used by the planner
# ---------------------------------------------------------------------------


def split_conjuncts(expression: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.operator == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def combine_conjuncts(conjuncts: Iterable[Expression]) -> Expression | None:
    """Rebuild a predicate from conjuncts (inverse of :func:`split_conjuncts`)."""
    result: Expression | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("and", result, conjunct)
    return result


def is_constant(expression: Expression) -> bool:
    """True for what an index probe can be keyed on: a literal, a ``?``, or
    either one negated -- a value no row is needed to know."""
    if isinstance(expression, UnaryOp) and expression.operator == "-":
        return is_constant(expression.operand)
    return isinstance(expression, (Literal, Parameter))


def as_key_lookup(conjunct: Expression) -> tuple[ColumnRef, list[Expression]] | None:
    """Detect ``col = constant`` or ``col IN (constants)`` conjuncts.

    Returns ``(column_ref, candidate_keys)`` -- the keys as the constant
    expressions they were written as -- when the conjunct is such a pattern,
    otherwise None.
    """
    if isinstance(conjunct, BinaryOp) and conjunct.operator in ("=", "=="):
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and is_constant(right):
            return left, [right]
        if isinstance(right, ColumnRef) and is_constant(left):
            return right, [left]
    if isinstance(conjunct, InList) and not conjunct.negated:
        if isinstance(conjunct.operand, ColumnRef) and all(map(is_constant, conjunct.items)):
            return conjunct.operand, list(conjunct.items)
    return None


def as_spatial_lookup(conjunct: Expression) -> tuple[ColumnRef, tuple[Expression, ...]] | None:
    """Detect ``intersects(bbox_col, x1, y1, x2, y2)`` conjuncts with constant
    bounds; these can be answered by an R-tree probe.  Returns the column and
    the four bounds as written."""
    if not isinstance(conjunct, FunctionCall) or conjunct.name != "intersects":
        return None
    if len(conjunct.args) != 5:
        return None
    column, *bounds = conjunct.args
    if not isinstance(column, ColumnRef) or not all(map(is_constant, bounds)):
        return None
    return column, tuple(bounds)


def constant_value(expression: Expression) -> Callable[[Binds], Any]:
    """Compile a constant (see :func:`is_constant`) into a function of the binds alone."""
    evaluate = compile_expression(expression, Layout())
    return lambda binds: evaluate((), binds)
