"""Per-table statistics and the spatial sample the KD partitioner reads.

The statistics are deliberately simple — row counts, per-column min/max and
distinct-value estimates — enough to report dataset characteristics.  The
mini-SQL planner is rule-based and reads none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .schema import TableSchema


@dataclass
class ColumnStats:
    """Statistics for a single column."""

    name: str
    non_null_count: int = 0
    null_count: int = 0
    min_value: Any = None
    max_value: Any = None
    approx_distinct: int = 0

    def observe(self, value: Any) -> None:
        if value is None:
            self.null_count += 1
            return
        self.non_null_count += 1
        comparable = value if not isinstance(value, (tuple, list)) else tuple(value)
        if self.min_value is None or comparable < self.min_value:
            self.min_value = comparable
        if self.max_value is None or comparable > self.max_value:
            self.max_value = comparable


@dataclass
class TableStats:
    """Statistics for a whole table."""

    table_name: str
    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def empty(cls, schema: TableSchema) -> "TableStats":
        return cls(
            table_name=schema.name,
            columns={c.name: ColumnStats(name=c.name) for c in schema.columns},
        )

    def observe_row(self, schema: TableSchema, row: tuple[Any, ...]) -> None:
        self.row_count += 1
        for column, value in zip(schema.columns, row):
            self.columns[column.name].observe(value)

def compute_stats(schema: TableSchema, rows: list[tuple[Any, ...]]) -> TableStats:
    """Build :class:`TableStats` by scanning ``rows`` once."""
    stats = TableStats.empty(schema)
    for row in rows:
        stats.observe_row(schema, row)
    return stats


@dataclass
class SpatialDistribution:
    """A sampled distribution of object centres on one canvas.

    The cluster partitioner's balanced-KD strategy consumes this: it needs
    where the mass of a canvas's objects actually sits, not just row counts,
    to place shard boundaries so each shard serves a similar load.  Samples
    from several tables (the layers of one canvas) can be merged with
    :meth:`extend`.
    """

    points: list[tuple[float, float]] = field(default_factory=list)
    #: How many rows were scanned to produce the sample (>= len(points)).
    observed_rows: int = 0

    def observe(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def extend(self, other: "SpatialDistribution") -> None:
        self.points.extend(other.points)
        self.observed_rows += other.observed_rows

    def __len__(self) -> int:
        return len(self.points)


def sample_spatial_distribution(
    rows: "Any",
    bbox_position: int,
    *,
    sample_limit: int = 50_000,
    row_count_hint: int | None = None,
) -> SpatialDistribution:
    """Sample bbox centres from an iterable of positional rows.

    ``rows`` yields storage tuples with a bbox at ``bbox_position``; at most
    ``sample_limit`` centres are kept, taken at a uniform stride when
    ``row_count_hint`` says the table is larger than the limit.
    """
    stride = 1
    if row_count_hint and row_count_hint > sample_limit:
        # Ceiling division: a floor stride of 1 would sample a prefix of the
        # table instead of spanning it, biasing the KD splits.
        stride = -(-row_count_hint // sample_limit)
    distribution = SpatialDistribution()
    for index, row in enumerate(rows):
        distribution.observed_rows += 1
        if index % stride:
            continue
        bbox = row[bbox_position]
        if bbox is None:
            continue
        xmin, ymin, xmax, ymax = bbox
        distribution.observe((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
        if len(distribution) >= sample_limit:
            break
    return distribution
