"""Rule-based query planner.

The planner turns a parsed statement into a small physical-plan tree.  Its
job in this reproduction mirrors what Kyrix relies on PostgreSQL's planner
for: picking an index access path when the WHERE clause allows it.

Access-path rules, applied to the driving table's conjuncts (a constant is
a literal or a ``?`` placeholder):

1. an ``intersects(bbox_col, x1, y1, x2, y2)`` conjunct with constant bounds
   and an R-tree on ``bbox_col``  ->  :class:`SpatialScan`;
2. a ``col = constant`` / ``col IN (...)`` conjunct with a B-tree index
   on ``col``  ->  :class:`IndexKeyScan`;
3. otherwise  ->  :class:`SeqScan`.

Joins become :class:`IndexNLJoin` when the inner table has a key index on
its join column (the tuple–tile mapping design's ``tuple_id`` join), and
:class:`HashJoin` otherwise.

A plan node is also its own operator.  Building it fixes the layout of the
flat tuples it emits and compiles its expressions against its input's
layout, so every column reference is an offset -- or a typed error -- before
the first row is read; running it (:meth:`PlanNode.rows`) only moves tuples.
A plan is shared by every execution of its prepared statement, concurrent
ones included: what differs between executions -- the bind values -- is handed
down the tree by :meth:`PlanNode.rows` and never written to a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from ..errors import SQLExecutionError, SQLPlanError, StorageError
from ..storage.database import Database
from ..storage.rtree import Rect
from ..storage.table import IndexInfo, Table
from .ast import (
    ColumnRef,
    CreateIndexStatement,
    CreateTableStatement,
    Expression,
    FunctionCall,
    InsertStatement,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    Statement,
)
from .functions import (
    AGGREGATE_FUNCTIONS,
    Binds,
    Evaluator,
    Layout,
    Row,
    as_key_lookup,
    as_spatial_lookup,
    combine_conjuncts,
    compile_expression,
    constant_value,
    split_conjuncts,
)


# ---------------------------------------------------------------------------
# Physical plan nodes
# ---------------------------------------------------------------------------


class PlanNode:
    """Base class of physical plan nodes: ``layout`` is fixed when the node is
    built, :meth:`rows` produces tuples of that shape for one execution's
    bind values."""

    layout: Layout = Layout()

    def describe(self, binds: Binds = ()) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def rows(self, binds: Binds) -> Iterable[Row]:  # pragma: no cover - overridden
        raise NotImplementedError

    def explain(self, indent: int = 0, binds: Binds = ()) -> str:
        """Pretty-print the plan tree (like EXPLAIN) as ``binds`` would run it."""
        lines = ["  " * indent + self.describe(binds)]
        for child in self.children():
            lines.append(child.explain(indent + 1, binds))
        return "\n".join(lines)

    def children(self) -> list["PlanNode"]:
        return []


@dataclass
class TableScan(PlanNode):
    """Base of the access paths: rows of one table, shaped like its schema."""

    table: Table
    binding: str

    def __post_init__(self) -> None:
        self.layout = Layout.of_table(self.table, self.binding)


@dataclass
class SeqScan(TableScan):
    def describe(self, binds: Binds = ()) -> str:
        return f"SeqScan({self.table.name} as {self.binding})"

    def rows(self, binds: Binds) -> Iterable[Row]:
        return self.table.scan_rows()


@dataclass
class IndexKeyScan(TableScan):
    """Probe ``index`` (a key index on ``column``) for every key of the
    execution and fetch what they find in one batch."""

    column: str
    index: IndexInfo
    keys: list[Expression]

    def __post_init__(self) -> None:
        super().__post_init__()
        self._keys = [constant_value(key) for key in self.keys]

    def _probe_keys(self, binds: Binds) -> list[Any]:
        # A row matches an IN-list once however often its key is listed, and
        # ``= NULL`` matches nothing.
        return [key for key in dict.fromkeys(value(binds) for value in self._keys) if key is not None]

    def describe(self, binds: Binds = ()) -> str:
        return (
            f"IndexKeyScan({self.table.name} as {self.binding}, "
            f"{self.column} in {self._probe_keys(binds)!r})"
        )

    def rows(self, binds: Binds) -> Iterable[Row]:
        return self.table.fetch_many(self.index.index.search_many(self._probe_keys(binds)))


@dataclass
class SpatialScan(TableScan):
    """Probe ``index`` (an R-tree on ``column``) with the execution's rectangle."""

    column: str
    index: IndexInfo
    bounds: tuple[Expression, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        self._bounds = [constant_value(bound) for bound in self.bounds]

    def _rect(self, binds: Binds) -> Rect:
        bounds = [value(binds) for value in self._bounds]
        if None in bounds:
            raise SQLExecutionError(f"intersects() bounds must not be NULL: {bounds}")
        try:
            return Rect(*map(float, bounds))
        except StorageError as exc:  # degenerate rectangle
            raise SQLPlanError(f"invalid intersects() bounds: {bounds}") from exc

    def describe(self, binds: Binds = ()) -> str:
        return (
            f"SpatialScan({self.table.name} as {self.binding}, "
            f"{self.column} ∩ {self._rect(binds).as_tuple()})"
        )

    def rows(self, binds: Binds) -> Iterable[Row]:
        return self.table.fetch_many(self.index.index.search(self._rect(binds)))


@dataclass
class Filter(PlanNode):
    child: PlanNode
    predicate: Expression

    def __post_init__(self) -> None:
        self.layout = self.child.layout
        self._matches = compile_expression(self.predicate, self.layout)

    def describe(self, binds: Binds = ()) -> str:
        return "Filter"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def rows(self, binds: Binds) -> Iterable[Row]:
        matches = self._matches
        return (row for row in self.child.rows(binds) if matches(row, binds))  # NULL is falsy


@dataclass
class IndexNLJoin(PlanNode):
    """Index join: probe ``inner_index`` (a key index on the inner table's join
    column) with every outer row's key, then fetch every inner row found in one
    batch.  Rows come out in outer order, an outer row's matches in index order."""

    outer: PlanNode
    inner_table: Table
    inner_binding: str
    outer_column: ColumnRef
    inner_index: IndexInfo

    def __post_init__(self) -> None:
        self.layout = self.outer.layout + Layout.of_table(self.inner_table, self.inner_binding)
        self._outer_key = self.outer.layout.resolve(self.outer_column)

    def describe(self, binds: Binds = ()) -> str:
        return (
            f"IndexNLJoin(inner={self.inner_table.name} as {self.inner_binding} "
            f"on {self.inner_index.column})"
        )

    def children(self) -> list[PlanNode]:
        return [self.outer]

    def rows(self, binds: Binds) -> Iterable[Row]:
        outer_rows = list(self.outer.rows(binds))
        search, key_at = self.inner_index.index.search, self._outer_key
        # A NULL outer key joins nothing; an absent one finds no rids.
        found = [
            search(key) if (key := outer_row[key_at]) is not None else ()
            for outer_row in outer_rows
        ]
        inner_rows = iter(self.inner_table.fetch_many([rid for rids in found for rid in rids]))
        return [
            outer_row + next(inner_rows)
            for outer_row, rids in zip(outer_rows, found)
            for _ in rids
        ]


@dataclass
class HashJoin(PlanNode):
    """Hash join: build a hash table on the inner input, probe with outer rows."""

    outer: PlanNode
    inner: PlanNode
    outer_column: ColumnRef
    inner_column: ColumnRef

    def __post_init__(self) -> None:
        self.layout = self.outer.layout + self.inner.layout
        self._outer_key = self.outer.layout.resolve(self.outer_column)
        self._inner_key = self.inner.layout.resolve(self.inner_column)

    def describe(self, binds: Binds = ()) -> str:
        return "HashJoin"

    def children(self) -> list[PlanNode]:
        return [self.outer, self.inner]

    def rows(self, binds: Binds) -> Iterable[Row]:
        build: dict[Any, list[Row]] = {}
        for inner_row in self.inner.rows(binds):
            if inner_row[self._inner_key] is not None:
                build.setdefault(inner_row[self._inner_key], []).append(inner_row)
        for outer_row in self.outer.rows(binds):
            # A NULL outer key finds nothing: NULL keys were never built.
            for inner_row in build.get(outer_row[self._outer_key], ()):
                yield outer_row + inner_row


@dataclass
class Project(PlanNode):
    child: PlanNode
    items: list[SelectItem]
    select_star: bool
    distinct: bool = False

    def __post_init__(self) -> None:
        source = self.child.layout
        # Either a pick of offsets (no binds needed) or one evaluator per item.
        self._picked: Callable[[Row], Row] | None = None
        self._evaluators: list[Evaluator] | None = None
        if self.select_star:
            # Every column once: a bare name an earlier table already gave is dropped.
            first: dict[str, int] = {}
            for offset, column in enumerate(source.names):
                first.setdefault(column, offset)
            keep = list(first.values())
            self.layout = Layout(tuple(source.slots[offset] for offset in keep))
            if len(keep) != len(source.slots):
                self._picked = _pick(keep)
            return
        self.layout = _projected_layout(self.items, source)
        if all(isinstance(item.expression, ColumnRef) for item in self.items):
            self._picked = _pick([source.resolve(item.expression) for item in self.items])
        else:
            self._evaluators = [compile_expression(item.expression, source) for item in self.items]

    def describe(self, binds: Binds = ()) -> str:
        return "Project(*)" if self.select_star else f"Project({len(self.items)} items)"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def rows(self, binds: Binds) -> Iterable[Row]:
        rows = self.child.rows(binds)
        if self._picked is not None:
            rows = map(self._picked, rows)
        elif (evaluators := self._evaluators) is not None:
            rows = (tuple(evaluate(row, binds) for evaluate in evaluators) for row in rows)
        return dict.fromkeys(rows) if self.distinct else rows  # first occurrence order


#: What each aggregate makes of its non-NULL inputs (``count`` counts them).
_AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": len,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
}


@dataclass
class Aggregate(PlanNode):
    child: PlanNode
    items: list[SelectItem]
    group_by: list[Expression]

    def __post_init__(self) -> None:
        source = self.child.layout
        self.layout = _projected_layout(self.items, source)
        self._group_key = [compile_expression(key, source) for key in self.group_by]
        self._outputs = [_compile_group_item(item.expression, source) for item in self.items]

    def describe(self, binds: Binds = ()) -> str:
        return f"Aggregate(groups={len(self.group_by)})"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def rows(self, binds: Binds) -> Iterable[Row]:
        groups: dict[Row, list[Row]] = {}
        for row in self.child.rows(binds):
            groups.setdefault(tuple(key(row, binds) for key in self._group_key), []).append(row)
        if not groups and not self.group_by:
            groups[()] = []
        for members in groups.values():
            yield tuple(output(members, binds) for output in self._outputs)


def _compile_group_item(
    expression: Expression, layout: Layout
) -> Callable[[list[Row], Binds], Any]:
    """Compile one output column of an :class:`Aggregate` over a group's rows."""
    if isinstance(expression, FunctionCall) and expression.name in AGGREGATE_FUNCTIONS:
        name = expression.name
        if expression.star:
            if name != "count":
                raise SQLPlanError(f"{name}(*) is not supported")
            return lambda members, binds: len(members)
        if len(expression.args) != 1:
            raise SQLPlanError(f"aggregate {name}() takes exactly one argument")
        argument, reduce = compile_expression(expression.args[0], layout), _AGGREGATES[name]

        def aggregate(members: list[Row], binds: Binds) -> Any:
            values = [
                value for row in members if (value := argument(row, binds)) is not None
            ]
            return reduce(values) if values or name == "count" else None

        return aggregate
    # Group-by key or plain expression: evaluate against the first row.
    evaluate = compile_expression(expression, layout)
    return lambda members, binds: evaluate(members[0], binds) if members else None


@dataclass
class Sort(PlanNode):
    child: PlanNode
    order_by: list[OrderItem]

    def __post_init__(self) -> None:
        # Sorting runs above the projection, whose layout keeps the source
        # binding of plain column items, so ``ORDER BY d.id`` still resolves.
        self.layout = self.child.layout
        self._keys = [
            (compile_expression(order.expression, self.layout), order.descending)
            for order in self.order_by
        ]

    def describe(self, binds: Binds = ()) -> str:
        return f"Sort({len(self.order_by)} keys)"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def rows(self, binds: Binds) -> Iterable[Row]:
        rows = list(self.child.rows(binds))
        for key, descending in reversed(self._keys):
            # NULLs sort first.
            rows.sort(
                key=lambda row: (0, 0) if (value := key(row, binds)) is None else (1, value),
                reverse=descending,
            )
        return rows


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: int | None
    offset: int | None

    def __post_init__(self) -> None:
        self.layout = self.child.layout

    def describe(self, binds: Binds = ()) -> str:
        return f"Limit(limit={self.limit}, offset={self.offset})"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def rows(self, binds: Binds) -> Iterable[Row]:
        start = self.offset or 0
        return islice(self.child.rows(binds), start, None if self.limit is None else start + self.limit)


@dataclass
class SeqScanConstant(PlanNode):
    """A scan producing exactly one empty row (for table-less SELECTs)."""

    def describe(self, binds: Binds = ()) -> str:
        return "ConstantScan"

    def rows(self, binds: Binds) -> Iterable[Row]:
        return [()]


# Non-SELECT statement "plans" carry the statement through to the executor.


@dataclass
class DataModification(PlanNode):
    statement: Statement

    def describe(self, binds: Binds = ()) -> str:
        return type(self.statement).__name__


def _pick(offsets: Sequence[int]) -> Callable[[Row], Row]:
    """A row of the values at ``offsets`` (``itemgetter`` of one is a scalar)."""
    if len(offsets) == 1:
        (only,) = offsets
        return lambda row: (row[only],)
    return itemgetter(*offsets)


def _item_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ColumnRef):
        return expression.column
    if isinstance(expression, FunctionCall):
        return expression.name
    return f"column_{index}"


def _projected_layout(items: Sequence[SelectItem], source: Layout) -> Layout:
    """Output layout of a projection: item names, de-duplicated in order.

    Two unaliased ``count(...)`` items would otherwise collide on the name
    ``count``.  An unaliased plain column keeps its source binding and table.
    """
    slots: list[tuple[str | None, str | None, str]] = []
    seen: set[str] = set()
    for index, item in enumerate(items):
        name = _item_name(item, index)
        if name in seen:
            name = f"{name}_{index}"
        seen.add(name)
        binding = table = None
        if isinstance(item.expression, ColumnRef) and not item.alias:
            binding, table, _ = source.slots[source.resolve(item.expression)]
        slots.append((binding, table, name))
    return Layout(tuple(slots))


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


@dataclass
class PlannedQuery:
    """A plan plus metadata the executor needs."""

    root: PlanNode
    statement: Statement
    uses_index: bool = False
    access_path: str = "seqscan"


class Planner:
    """Plans parsed statements against a :class:`~repro.storage.Database`."""

    def __init__(self, database: Database) -> None:
        self._db = database

    def plan(self, statement: Statement) -> PlannedQuery:
        if isinstance(statement, SelectStatement):
            return self._plan_select(statement)
        if isinstance(
            statement,
            (InsertStatement, CreateTableStatement, CreateIndexStatement),
        ):
            return PlannedQuery(root=DataModification(statement), statement=statement)
        raise SQLPlanError(f"cannot plan statement of type {type(statement).__name__}")

    # -- SELECT planning -------------------------------------------------------

    def _plan_select(self, statement: SelectStatement) -> PlannedQuery:
        if statement.table is None:
            # SELECT of constant expressions only.
            root: PlanNode = Project(
                child=SeqScanConstant(), items=list(statement.items),
                select_star=False, distinct=statement.distinct,
            )
            return PlannedQuery(root=root, statement=statement, access_path="constant")

        table = self._db.table(statement.table.name)
        binding = statement.table.binding
        conjuncts = split_conjuncts(statement.where)

        access, remaining, access_path = self._choose_access_path(
            table, binding, conjuncts
        )
        node: PlanNode = access

        for join in statement.joins:
            node = self._plan_join(node, join)

        residual = combine_conjuncts(remaining)
        if residual is not None:
            node = Filter(child=node, predicate=residual)

        if statement.group_by or self._has_aggregates(statement.items):
            node = Aggregate(
                child=node,
                items=list(statement.items),
                group_by=list(statement.group_by),
            )
        else:
            node = Project(
                child=node,
                items=list(statement.items),
                select_star=statement.select_star,
                distinct=statement.distinct,
            )

        if statement.order_by:
            node = Sort(child=node, order_by=list(statement.order_by))
        if statement.limit is not None or statement.offset is not None:
            node = LimitNode(child=node, limit=statement.limit, offset=statement.offset)

        return PlannedQuery(
            root=node,
            statement=statement,
            uses_index=access_path != "seqscan",
            access_path=access_path,
        )

    def _choose_access_path(
        self, table: Table, binding: str, conjuncts: list[Expression]
    ) -> tuple[PlanNode, list[Expression], str]:
        """Pick the driving access path and return the unconsumed conjuncts."""
        # Rule 1: spatial probe.
        for index, conjunct in enumerate(conjuncts):
            spatial = as_spatial_lookup(conjunct)
            if spatial is None:
                continue
            column_ref, bounds = spatial
            if not self._column_belongs(column_ref, table, binding):
                continue
            rtree = table.find_index_on(column_ref.column, kinds=("rtree",))
            if rtree is not None:
                remaining = conjuncts[:index] + conjuncts[index + 1 :]
                scan = SpatialScan(
                    table=table, binding=binding, column=column_ref.column,
                    index=rtree, bounds=bounds,
                )
                return scan, remaining, "spatial"
        # Rule 2: key lookup.
        for index, conjunct in enumerate(conjuncts):
            lookup = as_key_lookup(conjunct)
            if lookup is None:
                continue
            column_ref, keys = lookup
            if not self._column_belongs(column_ref, table, binding):
                continue
            key_index = table.find_index_on(column_ref.column, kinds=("btree",))
            if key_index is not None:
                remaining = conjuncts[:index] + conjuncts[index + 1 :]
                scan = IndexKeyScan(
                    table=table, binding=binding, column=column_ref.column,
                    index=key_index, keys=keys,
                )
                return scan, remaining, "key"
        # Rule 3: sequential scan.
        return SeqScan(table=table, binding=binding), list(conjuncts), "seqscan"

    def _plan_join(self, outer: PlanNode, join: JoinClause) -> PlanNode:
        inner_table = self._db.table(join.table.name)
        inner_binding = join.table.binding

        # Work out which side of the ON clause belongs to the inner table.
        if self._column_belongs(join.right, inner_table, inner_binding):
            inner_column, outer_column = join.right, join.left
        elif self._column_belongs(join.left, inner_table, inner_binding):
            inner_column, outer_column = join.left, join.right
        else:
            raise SQLPlanError(
                f"join condition does not reference joined table {join.table.name!r}"
            )

        inner_index = inner_table.find_index_on(inner_column.column, kinds=("btree",))
        if inner_index is not None:
            return IndexNLJoin(
                outer=outer,
                inner_table=inner_table,
                inner_binding=inner_binding,
                outer_column=outer_column,
                inner_index=inner_index,
            )
        return HashJoin(
            outer=outer,
            inner=SeqScan(table=inner_table, binding=inner_binding),
            outer_column=outer_column,
            inner_column=ColumnRef(column=inner_column.column, table=inner_binding),
        )

    @staticmethod
    def _column_belongs(ref: ColumnRef, table: Table, binding: str) -> bool:
        if ref.table is not None and ref.table not in (binding, table.name):
            return False
        return table.schema.has_column(ref.column)

    @staticmethod
    def _has_aggregates(items: list[SelectItem]) -> bool:
        def contains_aggregate(expression: Expression) -> bool:
            if isinstance(expression, FunctionCall):
                if expression.name in AGGREGATE_FUNCTIONS and (
                    expression.star or len(expression.args) == 1
                ):
                    return True
                return any(contains_aggregate(a) for a in expression.args)
            for attr in ("left", "right", "operand"):
                child = getattr(expression, attr, None)
                if isinstance(child, Expression) and contains_aggregate(child):
                    return True
            return False

        return any(contains_aggregate(item.expression) for item in items)
