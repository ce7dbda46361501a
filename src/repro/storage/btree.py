"""An in-memory B+tree index mapping keys to record ids.

This is the index the paper's *tuple–tile mapping* database design uses:
a B-tree on the ``tuple_id`` column of the record table and on the
``tile_id`` column of the mapping table.  Keys are arbitrary orderable
Python values (integers and strings in practice); duplicates are allowed
(each key maps to a list of record ids) unless the index is declared unique.

The implementation is a textbook B+tree: internal nodes hold separator keys
and child pointers, leaves hold ``(key, [rid, ...])`` pairs and are chained
left-to-right so that range scans are a linked-list walk.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Sequence

from ..errors import DuplicateKeyError, StorageError
from .row import RecordId

DEFAULT_ORDER = 64


class _Node:
    """Base class for B+tree nodes; ``is_leaf`` is a constant of the subclass."""

    __slots__ = ("keys",)
    is_leaf: bool

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _LeafNode(_Node):
    __slots__ = ("values", "next_leaf")
    is_leaf = True

    def __init__(self) -> None:
        super().__init__()
        self.values: list[list[RecordId]] = []
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
        Maximum number of keys per node; nodes split when they exceed it.
    unique:
        When true, inserting a duplicate key raises
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
        self.inserts = 0

    def __len__(self) -> int:
        """Number of (key, rid) entries stored."""
        return self._count

    # -- internal helpers -----------------------------------------------------

    def _find_leaf(self, key: Any) -> _LeafNode:
        node, bisect_right = self._root, bisect.bisect_right
        while not node.is_leaf:
            node = node.children[bisect_right(node.keys, key)]  # type: ignore[attr-defined]
        return node  # type: ignore[return-value]

    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
        return node  # type: ignore[return-value]

    def _split_leaf(self, leaf: _LeafNode) -> tuple[Any, _LeafNode]:
        middle = len(leaf.keys) // 2
        sibling = _LeafNode()
        sibling.keys = leaf.keys[middle:]
        sibling.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        sibling.next_leaf = leaf.next_leaf
        leaf.next_leaf = sibling
        return sibling.keys[0], sibling

    def _split_internal(self, node: _InternalNode) -> tuple[Any, _InternalNode]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        sibling = _InternalNode()
        sibling.keys = node.keys[middle + 1 :]
        sibling.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, sibling

    def _insert_recursive(
        self, node: _Node, key: Any, rid: RecordId
    ) -> tuple[Any, _Node] | None:
        """Insert and return a ``(separator, new_sibling)`` pair on split."""
        if node.is_leaf:
            leaf: _LeafNode = node  # type: ignore[assignment]
            position = bisect.bisect_left(leaf.keys, key)
            if position < len(leaf.keys) and leaf.keys[position] == key:
                if self.unique:
                    raise DuplicateKeyError(
                        f"index {self.name!r}: duplicate key {key!r}"
                    )
                leaf.values[position].append(rid)
            else:
                leaf.keys.insert(position, key)
                leaf.values.insert(position, [rid])
            if len(leaf.keys) > self.order:
                return self._split_leaf(leaf)
            return None

        internal: _InternalNode = node  # type: ignore[assignment]
        position = bisect.bisect_right(internal.keys, key)
        split = self._insert_recursive(internal.children[position], key, rid)
        if split is None:
            return None
        separator, sibling = split
        internal.keys.insert(position, separator)
        internal.children.insert(position + 1, sibling)
        if len(internal.keys) > self.order:
            return self._split_internal(internal)
        return None

    # -- public API -------------------------------------------------------------

    def insert(self, key: Any, rid: RecordId) -> None:
        """Insert one ``key -> rid`` entry."""
        if key is None:
            raise StorageError(f"index {self.name!r}: cannot index NULL keys")
        self.inserts += 1
        split = self._insert_recursive(self._root, key, rid)
        if split is not None:
            separator, sibling = split
            new_root = _InternalNode()
            new_root.keys = [separator]
            new_root.children = [self._root, sibling]
            self._root = new_root
        self._count += 1

    def delete(self, key: Any, rid: RecordId) -> bool:
        """Remove one ``key -> rid`` entry.  Returns False when absent.

        Nodes are not rebalanced on delete; for the read-mostly workloads of
        Kyrix precomputation this keeps the structure simple without
        affecting lookup correctness.
        """
        leaf = self._find_leaf(key)
        position = bisect.bisect_left(leaf.keys, key)
        if position >= len(leaf.keys) or leaf.keys[position] != key:
            return False
        rids = leaf.values[position]
        if rid not in rids:
            return False
        rids.remove(rid)
        if not rids:
            leaf.keys.pop(position)
            leaf.values.pop(position)
        self._count -= 1
        return True

    def search(self, key: Any) -> list[RecordId]:
        """Return every rid stored under ``key`` (empty list when absent)."""
        self.lookups += 1
        leaf = self._find_leaf(key)
        position = bisect.bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            return list(leaf.values[position])
        return []

    def search_many(self, keys: Sequence[Any]) -> list[RecordId]:
        """Union of :meth:`search` over several keys, preserving key order."""
        results: list[RecordId] = []
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
    ) -> Iterator[tuple[Any, RecordId]]:
        """Yield ``(key, rid)`` pairs with ``low <= key <= high`` in key order.

        ``None`` bounds are unbounded on that side.
        """
        self.lookups += 1
        if low is None:
            leaf: _LeafNode | None = self._leftmost_leaf()
            position = 0
        else:
            leaf = self._find_leaf(low)
            position = (
                bisect.bisect_left(leaf.keys, low)
                if include_low
                else bisect.bisect_right(leaf.keys, low)
            )
        while leaf is not None:
            while position < len(leaf.keys):
                key = leaf.keys[position]
                if high is not None:
                    if include_high and key > high:
                        return
                    if not include_high and key >= high:
                        return
                for rid in leaf.values[position]:
                    yield key, rid
                position += 1
            leaf = leaf.next_leaf
            position = 0

    def items(self) -> Iterator[tuple[Any, RecordId]]:
        """Yield every ``(key, rid)`` entry in key order."""
        return self.range_search()

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys in order."""
        leaf: _LeafNode | None = self._leftmost_leaf()
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next_leaf

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

        Used by property-based tests: keys within each node are sorted,
        leaves are chained in non-decreasing key order, and entry counts add
        up.
        """
        counted = 0
        previous_key: Any = None
        leaf: _LeafNode | None = self._leftmost_leaf()
        while leaf is not None:
            if leaf.keys != sorted(leaf.keys):
                raise StorageError(f"index {self.name!r}: leaf keys out of order")
            for key, rids in zip(leaf.keys, leaf.values):
                if previous_key is not None and key < previous_key:
                    raise StorageError(
                        f"index {self.name!r}: leaf chain out of order"
                    )
                if not rids:
                    raise StorageError(
                        f"index {self.name!r}: empty rid list for key {key!r}"
                    )
                previous_key = key
                counted += len(rids)
            leaf = leaf.next_leaf
        if counted != self._count:
            raise StorageError(
                f"index {self.name!r}: entry count mismatch "
                f"({counted} found, {self._count} recorded)"
            )
