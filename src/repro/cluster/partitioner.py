"""Spatial partitioners: split a canvas into shard regions.

Two strategies are provided, selected by ``ClusterConfig.strategy``:

* :class:`GridPartitioner` (``"grid"``) tiles the canvas with a uniform
  ``columns x rows`` grid chosen to keep shard regions as square as the
  canvas aspect ratio allows.  Cheap and oblivious to the data.
* :class:`BalancedKDPartitioner` (``"kd"``) recursively splits the region
  currently holding the most objects at the median of the object centres
  along its longer axis, using a
  :class:`~repro.storage.statistics.SpatialDistribution` sampled from the
  canvas's placement tables.  On skewed datasets this equalises per-shard
  load where the grid would leave most shards idle.

Both KD flavours are one split loop: :class:`LoadWeightedKDPartitioner`
splits at *weighted* medians of a :class:`LoadHistogram` — the observed
request footprint recorded by the router at serving time — and the ``"kd"``
strategy is its unit-weight case over the static object distribution.  The
load-weighted form is what :class:`~repro.cluster.rebalancer.LoadRebalancer`
uses to derive a new partitioning from live traffic skew; it is not a
``ClusterConfig.strategy`` because the load signal only exists once the
cluster has served requests.

All three produce a :class:`Partitioning`: an exact, gap-free cover of the
canvas by axis-aligned :class:`ShardRegion` rectangles.  Region edges are
shared, so an object whose bbox touches a boundary is *replicated* into
every shard it overlaps; the router deduplicates at gather time (see
:mod:`repro.cluster.router`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import KyrixError
from ..storage.rtree import Rect
from ..storage.statistics import SpatialDistribution

#: Registry of strategy names (mirrors ``ClusterConfig.strategy``).
STRATEGY_GRID = "grid"
STRATEGY_KD = "kd"
#: Strategy label of load-driven repartitionings (not a config strategy:
#: it needs live traffic, which precompute-time builds do not have).
STRATEGY_LOAD = "load_kd"


@dataclass(frozen=True)
class ShardRegion:
    """One shard's slice of a canvas."""

    shard_id: int
    rect: Rect

    def describe(self) -> dict[str, object]:
        return {"shard_id": self.shard_id, "rect": self.rect.as_tuple()}


@dataclass
class Partitioning:
    """A complete partitioning of one canvas into shard regions."""

    canvas_id: str
    strategy: str
    regions: list[ShardRegion] = field(default_factory=list)

    @property
    def shard_count(self) -> int:
        return len(self.regions)

    def shards_for_rect(self, rect: Rect) -> list[int]:
        """Ids of every shard whose region intersects ``rect`` (scatter set)."""
        return [
            region.shard_id
            for region in self.regions
            if region.rect.intersects(rect)
        ]

    def shard_for_point(self, x: float, y: float) -> int:
        """The shard owning canvas point ``(x, y)``.

        Boundary points belong to every adjacent region; the lowest shard id
        wins so the assignment stays deterministic.
        """
        for region in self.regions:
            if region.rect.contains_point(x, y):
                return region.shard_id
        raise KyrixError(
            f"point ({x}, {y}) outside every shard region of canvas "
            f"{self.canvas_id!r}"
        )

    def region(self, shard_id: int) -> ShardRegion:
        for candidate in self.regions:
            if candidate.shard_id == shard_id:
                return candidate
        raise KyrixError(f"no shard {shard_id} in canvas {self.canvas_id!r}")

    def describe(self) -> dict[str, object]:
        return {
            "canvas_id": self.canvas_id,
            "strategy": self.strategy,
            "regions": [region.describe() for region in self.regions],
        }


class GridPartitioner:
    """Uniform grid partitioning of a canvas."""

    strategy = STRATEGY_GRID

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise KyrixError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    def partition(
        self,
        canvas_id: str,
        width: float,
        height: float,
        distribution: SpatialDistribution | None = None,
    ) -> Partitioning:
        columns, rows = self._grid_shape(width, height)
        cell_w = width / columns
        cell_h = height / rows
        regions: list[ShardRegion] = []
        for row in range(rows):
            for column in range(columns):
                shard_id = row * columns + column
                regions.append(
                    ShardRegion(
                        shard_id=shard_id,
                        rect=Rect(
                            column * cell_w,
                            row * cell_h,
                            width if column == columns - 1 else (column + 1) * cell_w,
                            height if row == rows - 1 else (row + 1) * cell_h,
                        ),
                    )
                )
        return Partitioning(canvas_id=canvas_id, strategy=self.strategy, regions=regions)

    def _grid_shape(self, width: float, height: float) -> tuple[int, int]:
        """The ``columns x rows`` factorisation closest to the canvas aspect."""
        best: tuple[float, int, int] | None = None
        for columns in range(1, self.shard_count + 1):
            if self.shard_count % columns:
                continue
            rows = self.shard_count // columns
            # Penalise elongation symmetrically: a 1:2 cell is as bad as
            # 2:1.  A collapsed axis acts as unit length, so a degenerate
            # canvas slices its live axis instead of dividing by zero.
            cell_aspect = ((width / columns) or 1.0) / ((height / rows) or 1.0)
            score = max(cell_aspect, 1.0 / cell_aspect)
            # <= so ties (e.g. a square canvas split in two) prefer columns.
            if best is None or score <= best[0]:
                best = (score, columns, rows)
        assert best is not None
        _, columns, rows = best
        return columns, rows


class LoadHistogram:
    """A bounded sample of weighted request-footprint centres on one canvas.

    The router records the centre of every scatter-gather's canvas
    rectangle here (weight 1 per request by default); the rebalancer feeds
    the histogram to :class:`LoadWeightedKDPartitioner` so shard boundaries
    move toward where the *traffic* is, not where the data sits.  With a
    positive ``limit`` the sample is a ring buffer — old observations fall
    off, so the histogram tracks recent load rather than all of history.
    """

    def __init__(self, limit: int = 0) -> None:
        self.limit = limit
        self._points: deque[tuple[float, float, float]] = deque(
            maxlen=limit if limit > 0 else None
        )

    def observe(self, x: float, y: float, weight: float = 1.0) -> None:
        if weight <= 0:
            return
        self._points.append((float(x), float(y), float(weight)))

    @property
    def points(self) -> tuple[tuple[float, float, float], ...]:
        """The ``(x, y, weight)`` samples, oldest first."""
        return tuple(self._points)

    def total_weight(self) -> float:
        return sum(weight for _, _, weight in self._points)

    def copy(self) -> "LoadHistogram":
        clone = LoadHistogram(self.limit)
        clone._points.extend(self._points)
        return clone

    def __len__(self) -> int:
        return len(self._points)


class LoadWeightedKDPartitioner:
    """KD splits at weighted medians of the observed request load.

    Where its subclass :class:`BalancedKDPartitioner` balances the *data*
    (object centres, equal counts per shard), this balances the *traffic*: the
    region carrying the most observed request weight is split at the
    weighted median of its samples, so a hotspot the size of one viewport
    ends up divided across several shards while cold regions merge into
    few large ones.  Any histogram — empty, degenerate, single-point —
    yields an exact, gap-free, overlap-free cover: regions that cannot be
    split data-sensibly fall back to midpoint splits.
    """

    strategy = STRATEGY_LOAD

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise KyrixError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    def partition(
        self,
        canvas_id: str,
        width: float,
        height: float,
        load: LoadHistogram | None = None,
    ) -> Partitioning:
        # Clamp samples into the canvas: request rects may hang off the
        # edge (a viewport centred near a border), and a sample outside
        # every region would silently distort the weighted medians.
        points: list[tuple[float, float, float]] = []
        if load is not None:
            points = [
                (min(max(x, 0.0), width), min(max(y, 0.0), height), weight)
                for x, y, weight in load.points
                if weight > 0
            ]

        items: list[tuple[Rect, list[tuple[float, float, float]]]] = [
            (Rect(0.0, 0.0, width, height), points)
        ]
        while len(items) < self.shard_count:
            items.sort(
                key=lambda item: sum(weight for _, _, weight in item[1]),
                reverse=True,
            )
            rect, samples = items.pop(0)
            axis = 0 if rect.width >= rect.height else 1
            split = self._weighted_split(rect, samples, axis)
            if split is None:
                # Degenerate along the preferred axis; try the other one.
                axis = 1 - axis
                split = self._weighted_split(rect, samples, axis)
            if split is None:
                # A zero-area region (degenerate canvas, or a previous
                # zero-width cut).  Split it into two identical zero-area
                # slabs: the cover stays exact and the loop still makes
                # progress toward shard_count regions.
                axis = 0
                split = rect.xmin
            if axis == 0:
                left = Rect(rect.xmin, rect.ymin, split, rect.ymax)
                right = Rect(split, rect.ymin, rect.xmax, rect.ymax)
            else:
                left = Rect(rect.xmin, rect.ymin, rect.xmax, split)
                right = Rect(rect.xmin, split, rect.xmax, rect.ymax)
            items.append((left, [p for p in samples if p[axis] <= split]))
            items.append((right, [p for p in samples if p[axis] > split]))

        items.sort(key=lambda item: (item[0].ymin, item[0].xmin))
        regions = [
            ShardRegion(shard_id=index, rect=rect)
            for index, (rect, _) in enumerate(items)
        ]
        return Partitioning(canvas_id=canvas_id, strategy=self.strategy, regions=regions)

    def _weighted_split(
        self,
        rect: Rect,
        samples: list[tuple[float, float, float]],
        axis: int,
    ) -> float | None:
        """The weighted-median cut of ``rect`` along ``axis``.

        Returns ``None`` when the region is degenerate along the axis (no
        interior point exists); falls back to the midpoint when the samples
        give no usable interior split.
        """
        low = rect.xmin if axis == 0 else rect.ymin
        high = rect.xmax if axis == 0 else rect.ymax
        if not low < high:
            return None
        total = sum(weight for _, _, weight in samples)
        split: float | None = None
        if total > 0:
            ordered = sorted(samples, key=lambda p: p[axis])
            cumulative = 0.0
            for point in ordered:
                cumulative += point[2]
                if cumulative >= total / 2.0:
                    split = float(point[axis])
                    break
        if split is None or not (low < split < high):
            split = (low + high) / 2.0
        return split


class BalancedKDPartitioner(LoadWeightedKDPartitioner):
    """KD partitioning driven by the object distribution.

    The unit-weight case of :class:`LoadWeightedKDPartitioner`: every
    sampled object centre counts once, so the splits equalise objects per
    shard.  Too small a sample falls back to the grid.
    """

    strategy = STRATEGY_KD

    def partition(
        self,
        canvas_id: str,
        width: float,
        height: float,
        distribution: SpatialDistribution | None = None,
    ) -> Partitioning:
        if distribution is None or len(distribution) < 2 * self.shard_count:
            # Not enough signal for data-driven splits — fall back to the grid
            # so the cover stays exact and balanced by area.
            return GridPartitioner(self.shard_count).partition(canvas_id, width, height)
        load = LoadHistogram()
        for x, y in distribution.points:
            load.observe(x, y)
        return super().partition(canvas_id, width, height, load)


def make_partitioner(
    strategy: str, shard_count: int
) -> GridPartitioner | BalancedKDPartitioner:
    """Build the partitioner named by ``ClusterConfig.strategy``."""
    if strategy == STRATEGY_GRID:
        return GridPartitioner(shard_count)
    if strategy == STRATEGY_KD:
        return BalancedKDPartitioner(shard_count)
    raise KyrixError(f"unknown partitioning strategy {strategy!r}")
