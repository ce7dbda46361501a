"""Rule-based query planner.

The planner turns a parsed ``SELECT`` into a small physical-plan tree:
an access path, its joins, a residual :class:`Filter`, a :class:`Project`.  Its
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
:class:`HashJoin` otherwise.  When the select list names only plain columns
of the last index join's inner table and no residual filter is left, the
projection is pushed into that join: it returns the fetched inner rows as
they are, and the projection over them is the identity when it keeps every
column in order.

A plan node is also its own operator.  Building it fixes the layout of the
flat tuples it emits and compiles its expressions against its input's
layout, so every column reference is an offset -- or a typed error -- before
the first row is read; running it (:meth:`PlanNode.rows`) only moves tuples.
A plan is shared by every execution of its prepared statement, concurrent
ones included: what differs between executions -- the bind values -- is handed
down the tree by :meth:`PlanNode.rows` and never written to a node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from ..errors import SQLExecutionError, SQLPlanError, StorageError
from ..storage.database import Database
from ..storage.rtree import Rect
from ..storage.table import IndexInfo, Table
from ..storage.types import ColumnType
from .ast import ColumnRef, Expression, FunctionCall, JoinClause, SelectItem, SelectStatement
from .functions import (
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
    column) with every outer row's key in one batch, then fetch every inner row
    found in one batch.  Rows come out in outer order, an outer row's matches in
    index order.  With ``inner_only`` (the select list names inner columns
    alone) a row is the inner row as fetched, shaped like the inner table."""

    outer: PlanNode
    inner_table: Table
    inner_binding: str
    outer_column: ColumnRef
    inner_index: IndexInfo
    inner_only: bool = False

    def __post_init__(self) -> None:
        inner = Layout.of_table(self.inner_table, self.inner_binding)
        self.layout = inner if self.inner_only else self.outer.layout + inner
        self._outer_key = self.outer.layout.resolve(self.outer_column)

    def describe(self, binds: Binds = ()) -> str:
        return (
            f"IndexNLJoin(inner={self.inner_table.name} as {self.inner_binding} "
            f"on {self.inner_index.column}{', inner rows' if self.inner_only else ''})"
        )

    def children(self) -> list[PlanNode]:
        return [self.outer]

    def rows(self, binds: Binds) -> Iterable[Row]:
        outer_rows = list(self.outer.rows(binds))
        key_at, index = self._outer_key, self.inner_index.index
        # A NULL outer key joins nothing; an absent one finds no rids.
        if self.inner_only:
            keys = [key for outer_row in outer_rows if (key := outer_row[key_at]) is not None]
            return self.inner_table.fetch_many(index.search_many(keys))
        search = index.search
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
            self.layout = Layout(
                tuple(source.slots[offset] for offset in keep),
                tuple(source.types[offset] for offset in keep),
            )
            if len(keep) != len(source.slots):
                self._picked = _pick(keep)
            return
        self.layout = _projected_layout(self.items, source)
        if all(isinstance(item.expression, ColumnRef) for item in self.items):
            offsets = [source.resolve(item.expression) for item in self.items]
            if offsets != list(range(len(source.slots))):  # else each row is its own pick
                self._picked = _pick(offsets)
        else:
            self._evaluators = [compile_expression(item.expression, source) for item in self.items]

    def describe(self, binds: Binds = ()) -> str:
        return "Project(*)" if self.select_star else f"Project({len(self.items)} items)"

    def children(self) -> list[PlanNode]:
        return [self.child]

    def rows(self, binds: Binds) -> Iterable[Row]:
        rows = self.child.rows(binds)
        if self._picked is not None:
            return map(self._picked, rows)
        if (evaluators := self._evaluators) is not None:
            return (tuple(evaluate(row, binds) for evaluate in evaluators) for row in rows)
        return rows


def _pick(offsets: Sequence[int]) -> Callable[[Row], Row]:
    """A row of the values at ``offsets`` (``itemgetter`` of one is a scalar)."""
    if len(offsets) == 1:
        (only,) = offsets
        return lambda row: (row[only],)
    return itemgetter(*offsets)


def _selects_inner_only(join: IndexNLJoin, statement: SelectStatement) -> bool:
    """Whether every select item is a plain column of ``join``'s inner table,
    resolved against the whole joined row (a bare name both sides have stays
    ambiguous)."""
    if statement.select_star:
        return False
    inner_from = len(join.outer.layout.slots)
    return all(
        isinstance(item.expression, ColumnRef)
        and join.layout.resolve(item.expression) >= inner_from
        for item in statement.items
    )


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

    ``SELECT a.v, b.v`` would otherwise give two columns named ``v``.  An
    unaliased plain column keeps its source binding and table; a plain
    column keeps its storage type, aliased or not.
    """
    slots: list[tuple[str | None, str | None, str]] = []
    types: list[ColumnType | None] = []
    seen: set[str] = set()
    for index, item in enumerate(items):
        name = _item_name(item, index)
        if name in seen:
            name = f"{name}_{index}"
        seen.add(name)
        binding = table = column_type = None
        if isinstance(item.expression, ColumnRef):
            offset = source.resolve(item.expression)
            column_type = source.types[offset]
            if not item.alias:
                binding, table, _ = source.slots[offset]
        slots.append((binding, table, name))
        types.append(column_type)
    return Layout(tuple(slots), tuple(types))


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


@dataclass
class PlannedQuery:
    """A plan plus the access path that drives it."""

    root: PlanNode
    access_path: str = "seqscan"


class Planner:
    """Plans parsed statements against a :class:`~repro.storage.Database`."""

    def __init__(self, database: Database) -> None:
        self._db = database

    def plan(self, statement: SelectStatement) -> PlannedQuery:
        table = self._db.table(statement.table.name)
        binding = statement.table.binding
        conjuncts = split_conjuncts(statement.where)

        node, remaining, access_path = self._choose_access_path(table, binding, conjuncts)
        for join in statement.joins:
            node = self._plan_join(node, join)
        residual = combine_conjuncts(remaining)
        if residual is not None:
            node = Filter(child=node, predicate=residual)
        elif isinstance(node, IndexNLJoin) and _selects_inner_only(node, statement):
            node = replace(node, inner_only=True)
        node = Project(child=node, items=list(statement.items), select_star=statement.select_star)
        return PlannedQuery(root=node, access_path=access_path)

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
