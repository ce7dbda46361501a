"""The spatial sample of a canvas's objects that the KD partitioner reads.

This is the storage layer's only statistic: the mini-SQL planner is
rule-based and keeps no per-table or per-column statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


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
    bboxes: Sequence[tuple[float, float, float, float] | None],
    *,
    sample_limit: int = 50_000,
) -> SpatialDistribution:
    """Sample bbox centres from one table's bbox column.

    At most ``sample_limit`` centres are kept, taken at a uniform stride
    when the column is longer than the limit; a NULL bbox is passed over.
    """
    stride = 1
    if len(bboxes) > sample_limit:
        # Ceiling division: a floor stride of 1 would sample a prefix of the
        # table instead of spanning it, biasing the KD splits.
        stride = -(-len(bboxes) // sample_limit)
    distribution = SpatialDistribution()
    for index, bbox in enumerate(bboxes):
        distribution.observed_rows += 1
        if index % stride or bbox is None:
            continue
        xmin, ymin, xmax, ymax = bbox
        distribution.observe((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
        if len(distribution) >= sample_limit:
            break
    return distribution
