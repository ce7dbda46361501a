"""An in-memory B+tree index mapping keys to record ids.

This is the index the paper's *tuple–tile mapping* database design uses:
a B-tree on the ``tuple_id`` column of the record table and on the
``tile_id`` column of the mapping table.  Keys are arbitrary orderable
Python values (integers and strings in practice); duplicates are allowed
unless the index is declared unique.

The implementation is a B+tree built bottom-up from sorted entries
(:meth:`BTreeIndex.bulk_load`, the only write): internal nodes hold
separator keys and child pointers; a leaf holds its ``keys`` beside a flat
``array('q')`` of the rids, one per entry, and leaves are chained
left-to-right so that range scans are a linked-list walk.  A key stored
more than once is a run of adjacent entries in load order; a run may cross
from one leaf into the next, so a separator can equal the last key of the
leaf to its left -- lookups descend to the *first* leaf that may hold the
key and walk right.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import groupby
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import DuplicateKeyError, StorageError

DEFAULT_ORDER = 64


class _Node:
    """Base class for B+tree nodes; ``is_leaf`` is a constant of the subclass."""

    __slots__ = ("keys",)
    is_leaf: bool

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _LeafNode(_Node):
    __slots__ = ("rids", "next_leaf")
    is_leaf = True

    def __init__(self) -> None:
        super().__init__()
        self.rids = array("q")  # rids[i] is the record keys[i] names
        self.next_leaf: _LeafNode | None = None


class _InternalNode(_Node):
    __slots__ = ("children",)
    is_leaf = False

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []


class BTreeIndex:
    """A B+tree index over a single key column.

    Parameters
    ----------
    name:
        Index name (used in the catalog and error messages).
    order:
        Maximum number of entries per node.
    unique:
        When true, loading a duplicate key raises
        :class:`~repro.errors.DuplicateKeyError`.
    """

    kind = "btree"

    def __init__(self, name: str, *, order: int = DEFAULT_ORDER, unique: bool = False) -> None:
        if order < 4:
            raise StorageError(f"btree order must be >= 4, got {order}")
        self.name = name
        self.order = order
        self.unique = unique
        self._root: _Node = _LeafNode()
        self._count = 0
        self.lookups = 0

    def __len__(self) -> int:
        """Number of (key, rid) entries stored."""
        return self._count

    # -- internal helpers -----------------------------------------------------

    def _first_leaf(self, key: Any) -> _LeafNode:
        """The leftmost leaf that may hold ``key``."""
        node, bisect_left = self._root, bisect.bisect_left
        while not node.is_leaf:
            node = node.children[bisect_left(node.keys, key)]  # type: ignore[attr-defined]
        return node  # type: ignore[return-value]

    def _leaves(self, leaf: _LeafNode | None = None) -> Iterator[_LeafNode]:
        """The leaf chain left to right, from ``leaf`` or from the leftmost."""
        if leaf is None:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]  # type: ignore[attr-defined]
            leaf = node  # type: ignore[assignment]
        while leaf is not None:
            yield leaf
            leaf = leaf.next_leaf

    # -- public API -------------------------------------------------------------

    def bulk_load(self, pairs: Iterable[tuple[Any, int]]) -> None:
        """Replace the contents with ``pairs``, which arrive sorted by key
        (equal keys in the order their entries are to be returned): full
        leaves left to right, then each level of separators above them."""
        keys: list[Any] = []
        rids = array("q")
        for key, rid in pairs:
            keys.append(key)
            rids.append(rid)
        for left, right in zip(keys, keys[1:]):
            if right < left:
                raise StorageError(f"index {self.name!r}: bulk load keys out of order")
            if self.unique and left == right:
                raise DuplicateKeyError(f"index {self.name!r}: duplicate key {left!r}")
        level: list[_Node] = []
        for start in range(0, len(keys), self.order):
            leaf = _LeafNode()
            leaf.keys = keys[start : start + self.order]
            leaf.rids = rids[start : start + self.order]
            if level:
                level[-1].next_leaf = leaf  # type: ignore[attr-defined]
            level.append(leaf)
        firsts = [leaf.keys[0] for leaf in level]  # lowest key under each node
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), self.order + 1):
                parent = _InternalNode()
                parent.children = level[start : start + self.order + 1]
                parent.keys = firsts[start + 1 : start + self.order + 1]
                parents.append(parent)
            level, firsts = parents, firsts[:: self.order + 1]
        self._root = level[0] if level else _LeafNode()
        self._count = len(keys)

    def search(self, key: Any) -> list[int]:
        """Return every rid stored under ``key`` (empty list when absent)."""
        self.lookups += 1
        found: list[int] = []
        leaf: _LeafNode | None = self._first_leaf(key)
        while leaf is not None:
            keys = leaf.keys
            start = bisect.bisect_left(keys, key)
            stop = bisect.bisect_right(keys, key, start)
            found += leaf.rids[start:stop]
            if stop < len(keys):
                break  # the key's run ended inside this leaf
            leaf = leaf.next_leaf
        return found

    def search_many(self, keys: Sequence[Any]) -> list[int]:
        """Union of :meth:`search` over several keys, preserving key order."""
        results: list[int] = []
        for key in keys:
            results.extend(self.search(key))
        return results

    def range_search(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """Yield ``(key, rid)`` pairs with ``low <= key <= high`` in key order.

        ``None`` bounds are unbounded on that side.
        """
        self.lookups += 1
        first = None if low is None else self._first_leaf(low)
        position = 0 if first is None else bisect.bisect_left(first.keys, low)
        for leaf in self._leaves(first):
            for key, rid in zip(leaf.keys[position:], leaf.rids[position:]):
                if high is not None and (key > high or (key == high and not include_high)):
                    return
                if include_low or key != low:
                    yield key, rid
            position = 0

    def items(self) -> Iterator[tuple[Any, int]]:
        """Yield every ``(key, rid)`` entry in key order."""
        return self.range_search()

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys in order."""
        stored = (key for leaf in self._leaves() for key in leaf.keys)
        return (key for key, _ in groupby(stored))

    def rids(self) -> list[int]:
        """Every entry's rid, in entry (key) order."""
        return [rid for leaf in self._leaves() for rid in leaf.rids]

    def remap(self, old_to_new: Mapping[int, int]) -> None:
        """Point every entry at the rid its record moved to (a rewritten
        heap); keys, and the order within an equal-key run, stay."""
        new = old_to_new.__getitem__
        for leaf in self._leaves():
            leaf.rids = array("q", map(new, leaf.rids))

    def height(self) -> int:
        """Tree height (1 for a single leaf)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
            height += 1
        return height

    def validate(self) -> None:
        """Check structural invariants; raises :class:`StorageError` on breakage.

        Used by property-based tests: every leaf pairs one rid with each
        key, the leaf chain runs in non-decreasing key order (strictly
        increasing in a unique index), and entry counts add up.
        """
        stored: list[Any] = []
        for leaf in self._leaves():
            if len(leaf.keys) != len(leaf.rids):
                raise StorageError(f"index {self.name!r}: leaf keys and rids differ in length")
            stored += leaf.keys
        for left, right in zip(stored, stored[1:]):
            if right < left or (self.unique and left == right):
                raise StorageError(f"index {self.name!r}: leaf chain out of order")
        if len(stored) != self._count:
            raise StorageError(
                f"index {self.name!r}: entry count mismatch "
                f"({len(stored)} found, {self._count} recorded)"
            )
