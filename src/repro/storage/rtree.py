"""An R-tree spatial index over axis-aligned bounding boxes.

This is the substitute for PostgreSQL's GiST index in the paper's second
database design: every tuple stores a ``bbox`` column and "queries that
request tuples whose bounding boxes intersect with a given rectangle should
run fast".  Both the dynamic-box fetcher and the spatial static-tile fetcher
issue exactly such intersection queries.

The tree is a Sort-Tile-Recursive (STR) packing held as columns, not as node
objects: four ``array('d')`` of coordinates and one ``array('q')`` of
references, level after level -- the root, its children, ..., the leaf nodes,
then the entries in leaf order::

    position   0      1 .. n1      n1+1 ..         ..    first entry ..
    item       root   level 1      level 2         ..    entries
    ref        end of the item's child range             rid

A node's children are contiguous and start where its left neighbour's end
(``refs[i - 1]``; the root's start at 1), so everything under a node is one
slice of every deeper level: a node that lies inside the query gives its
entries whole, untested.  Children are stored in the order a depth-first
walk visits them, so a search reads every level left to right and emits rids
in tree order without a stack.

The tree is built whole by :meth:`RTreeIndex.bulk_load`; a table that
takes more rows packs its tree afresh, and only :meth:`RTreeIndex.remap`
(a clustered heap's new rids) writes into a built one.  ``search`` changes
nothing but its counter -- replicas of a shard probe one index from under
different locks.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import StorageError

DEFAULT_MAX_ENTRIES = 32


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin <= self.xmax and self.ymin <= self.ymax):  # NaN compares false
            raise StorageError(f"degenerate rectangle: {self}")

    # -- geometry ----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def intersects(self, other: "Rect") -> bool:
        """True when the two rectangles share any point (boundaries count)."""
        return not (
            self.xmax < other.xmin
            or other.xmax < self.xmin
            or self.ymax < other.ymin
            or other.ymax < self.ymin
        )

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and self.xmax >= other.xmax
            and self.ymax >= other.ymax
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or None when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.xmin, other.xmin),
            max(self.ymin, other.ymin),
            min(self.xmax, other.xmax),
            min(self.ymax, other.ymax),
        )

    def scaled(self, factor: float) -> "Rect":
        """Scale about the center by ``factor`` (>1 grows, <1 shrinks)."""
        if factor <= 0:
            raise StorageError(f"scale factor must be positive, got {factor}")
        cx, cy = self.center
        half_w = self.width * factor / 2.0
        half_h = self.height * factor / 2.0
        return Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    @classmethod
    def from_tuple(cls, values: Sequence[float]) -> "Rect":
        if len(values) != 4:
            raise StorageError(f"bbox must have 4 values, got {values!r}")
        return cls(float(values[0]), float(values[1]), float(values[2]), float(values[3]))


Box = tuple[float, float, float, float]


def _box(bbox: Rect | Sequence[float]) -> Box:
    """``bbox`` as ``(xmin, ymin, xmax, ymax)`` floats, checked as a
    :class:`Rect` checks itself but without building one."""
    if isinstance(bbox, Rect):
        return bbox.as_tuple()
    if len(bbox) != 4:
        raise StorageError(f"bbox must have 4 values, got {bbox!r}")
    x0, y0, x1, y1 = map(float, bbox)
    if not (x0 <= x1 and y0 <= y1):  # NaN compares false
        raise StorageError(f"degenerate rectangle: {bbox!r}")
    return x0, y0, x1, y1


def _str_groups(x0: list, y0: list, x1: list, y1: list, capacity: int) -> list[list[int]]:
    """Sort-Tile-Recursive: the items (by index) in groups of ``capacity`` --
    vertical slices by centre x, runs by centre y inside a slice."""
    total = len(x0)
    slice_count = math.ceil(math.sqrt(math.ceil(total / capacity)))
    slice_size = math.ceil(total / slice_count)
    center_x = [(low + high) / 2.0 for low, high in zip(x0, x1)]
    center_y = [(low + high) / 2.0 for low, high in zip(y0, y1)]
    by_x = sorted(range(total), key=center_x.__getitem__)
    groups: list[list[int]] = []
    for start in range(0, total, slice_size):
        column = sorted(by_x[start : start + slice_size], key=center_y.__getitem__)
        groups.extend(column[i : i + capacity] for i in range(0, len(column), capacity))
    return groups


class RTreeIndex:
    """An R-tree over ``(bbox, rid)`` entries supporting intersection search."""

    kind = "rtree"

    def __init__(self, name: str, *, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 4:
            raise StorageError(f"rtree max_entries must be >= 4, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self.lookups = 0
        self._pack([])

    def __len__(self) -> int:
        *_, refs, _, first = self._packed
        return len(refs) - first

    # -- packing (Sort-Tile-Recursive) -------------------------------------------

    def _pack(self, entries: list[tuple[float, float, float, float, int]]) -> None:
        """Replace the packed columns with an STR tree over ``entries``."""
        xmin, ymin, xmax, ymax = array("d"), array("d"), array("d"), array("d")
        refs = array("q")
        # Bottom-up: the groups STR makes of a level's items, and the groups'
        # MBRs (four lists) -- the items of the level above.
        levels: list[tuple[list[list[int]], list[list[float]]]] = []
        if entries:
            *entry_boxes, rids = map(list, zip(*entries))
            items = entry_boxes
            while not levels or len(levels[-1][0]) > 1:  # until one group, the root
                groups = _str_groups(*items, self.max_entries)
                items = [
                    [pick(map(column.__getitem__, group)) for group in groups]
                    for column, pick in zip(items, (min, min, max, max))
                ]
                levels.append((groups, items))
            # Top-down: lay each level out in the order its parents list it.
            order, end = [0], 1
            for depth, (groups, mbrs) in enumerate(reversed(levels), 1):
                below: list[int] = []
                for node in order:
                    # A leaf lists entries as packed; an inner node lists its
                    # children last first, the order a stack walk pops them.
                    below += groups[node] if depth == len(levels) else reversed(groups[node])
                    end += len(groups[node])
                    refs.append(end)
                for column, values in zip((xmin, ymin, xmax, ymax), mbrs):
                    column.extend(map(values.__getitem__, order))
                order = below
            for column, values in zip((xmin, ymin, xmax, ymax, refs), (*entry_boxes, rids)):
                column.extend(map(values.__getitem__, order))
        # One tuple, swapped whole: a search under another lock sees the old
        # columns or the new, never a mix.
        self._packed = (xmin, ymin, xmax, ymax, refs, len(levels), len(refs) - len(entries))

    def bulk_load(self, entries: Iterable[tuple[Rect | Sequence[float], int]]) -> None:
        """Replace the tree contents with an STR-packed tree over ``entries``."""
        self._pack([(*_box(bbox), rid) for bbox, rid in entries])

    # -- queries ---------------------------------------------------------------

    def _entry_ranges(
        self, qx0: float, qy0: float, qx1: float, qy1: float
    ) -> list[tuple[int, int, bool]]:
        """Walk the node levels: ``(start, stop, inside)`` for every run of
        packed entries under a node the query box meets, in tree order.
        ``inside`` says the node lies within the box -- so do its entries."""
        xmin, ymin, xmax, ymax, refs, height, _ = self._packed
        if not height:
            return []
        x0, y0, x1, y1 = xmin[0], ymin[0], xmax[0], ymax[0]
        if not (x0 <= qx1 and x1 >= qx0 and y0 <= qy1 and y1 >= qy0):
            return []
        frontier = [(1, refs[0], qx0 <= x0 and x1 <= qx1 and qy0 <= y0 and y1 <= qy1)]
        for _ in range(height - 1):
            deeper: list[tuple[int, int, bool]] = []
            for start, stop, inside in frontier:
                if inside:
                    deeper.append((refs[start - 1], refs[stop - 1], True))
                    continue
                for i, x0, y0, x1, y1 in zip(
                    range(start, stop), xmin[start:stop], ymin[start:stop],
                    xmax[start:stop], ymax[start:stop],
                ):
                    if x0 <= qx1 and x1 >= qx0 and y0 <= qy1 and y1 >= qy0:
                        deeper.append((
                            refs[i - 1], refs[i],
                            qx0 <= x0 and x1 <= qx1 and qy0 <= y0 and y1 <= qy1,
                        ))
            frontier = deeper
        return frontier

    def search(self, query: Rect | Sequence[float]) -> list[int]:
        """Return the rids of every entry whose bbox intersects ``query``."""
        qx0, qy0, qx1, qy1 = _box(query)
        self.lookups += 1
        xmin, ymin, xmax, ymax, refs, _, _ = self._packed
        results: list[int] = []
        for start, stop, inside in self._entry_ranges(qx0, qy0, qx1, qy1):
            if not inside:
                results += [
                    rid
                    for rid, x0, y0, x1, y1 in zip(
                        refs[start:stop], xmin[start:stop], ymin[start:stop],
                        xmax[start:stop], ymax[start:stop],
                    )
                    if x0 <= qx1 and x1 >= qx0 and y0 <= qy1 and y1 >= qy0
                ]
            else:
                results += refs[start:stop]
        return results

    def all_entries(self) -> Iterator[tuple[Rect, int]]:
        """Yield every ``(bbox, rid)`` entry, in entry order."""
        *columns, _, first = self._packed
        for x0, y0, x1, y1, rid in zip(*(column[first:] for column in columns)):
            yield Rect(x0, y0, x1, y1), rid

    def rids(self) -> list[int]:
        """Every entry's rid, in entry order (leaf by leaf)."""
        *_, refs, _, first = self._packed
        return refs[first:].tolist()

    def remap(self, old_to_new: Mapping[int, int]) -> None:
        """Point every entry at the rid its record moved to (a rewritten
        heap); the tree keeps its shape and order."""
        *_, refs, _, first = self._packed
        refs[first:] = array("q", map(old_to_new.__getitem__, refs[first:]))

    def height(self) -> int:
        """Node levels from the root to the leaves (1 for an empty tree)."""
        *_, height, _ = self._packed
        return max(1, height)

    def validate(self) -> None:
        """Check the packed layout and MBR containment."""
        xmin, ymin, xmax, ymax, refs, height, first = self._packed

        def broken(what: str) -> StorageError:
            return StorageError(f"index {self.name!r}: {what}")

        if (first > 0) != (height > 0) or (height and refs[first - 1] != len(refs)):
            raise broken("entry section does not follow the leaf nodes")
        start = 1
        for i in range(first):
            stop = refs[i]
            if not start < stop <= len(refs):
                raise broken(f"node {i} has an empty or unordered child range")
            for child in range(start, stop):
                if not (
                    xmin[i] <= xmin[child] and ymin[i] <= ymin[child]
                    and xmax[i] >= xmax[child] and ymax[i] >= ymax[child]
                ):
                    raise broken(f"node {i} MBR does not contain item {child}")
            start = stop
