"""A read-only B-tree index mapping keys to record ids.

This is the index the paper's *tuple–tile mapping* database design uses:
a B-tree on the ``tuple_id`` column of the record table and on the
``tile_id`` column of the mapping table.  Keys are arbitrary orderable
Python values (integers and strings in practice); duplicates are allowed
unless the index is declared unique.

An index is bulk-loaded from its column (:meth:`BTreeIndex.bulk_load`, the
only write) and then only read, so it is one sorted array: a list of the
``keys`` beside an ``array('q')`` of the rids, one per entry.  A probe is a
binary search of ``keys``; a key stored more than once is a run of adjacent
entries in column order, and comes back as a slice of the rids.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, groupby, repeat
from operator import eq, is_not
from typing import Any, Iterator, Mapping, Sequence

from ..errors import DuplicateKeyError, StorageError


class BTreeIndex:
    """A sorted-array index over a single key column.

    Parameters
    ----------
    name:
        Index name (used in the catalog and error messages).
    unique:
        When true, loading a duplicate key raises
        :class:`~repro.errors.DuplicateKeyError`.
    """

    kind = "btree"

    def __init__(self, name: str, *, unique: bool = False) -> None:
        self.name = name
        self.unique = unique
        self._keys: list[Any] = []
        self._rids = array("q")  # _rids[i] is the record _keys[i] names

    def __len__(self) -> int:
        """Number of (key, rid) entries stored."""
        return len(self._keys)

    def bulk_load(self, keys: Sequence[Any], rids: Sequence[int]) -> None:
        """Replace the contents with an entry per key of ``keys``, a column
        as the heap stores it, ``rids[i]`` naming the record ``keys[i]`` is
        read from; a NULL key is not indexed.  One stable sort orders the
        entries, so equal keys keep the column's order.  A duplicate key in
        a unique index is refused before the contents change."""
        order = sorted(
            compress(range(len(keys)), map(is_not, keys, repeat(None))), key=keys.__getitem__
        )
        ordered = list(map(keys.__getitem__, order))
        if self.unique and True in (repeats := list(map(eq, ordered, ordered[1:]))):
            duplicate = ordered[repeats.index(True)]
            raise DuplicateKeyError(f"index {self.name!r}: duplicate key {duplicate!r}")
        self._keys, self._rids = ordered, array("q", map(rids.__getitem__, order))

    def _check_order(self, keys: list[Any]) -> None:
        for left, right in zip(keys, keys[1:]):
            if right < left:
                raise StorageError(f"index {self.name!r}: keys out of order")
            if self.unique and left == right:
                raise DuplicateKeyError(f"index {self.name!r}: duplicate key {left!r}")

    def search(self, key: Any) -> list[int]:
        """Return every rid stored under ``key`` (empty list when absent)."""
        keys = self._keys
        start = bisect_left(keys, key)
        return self._rids[start : bisect_right(keys, key, start)].tolist()

    def search_many(self, keys: Sequence[Any]) -> list[int]:
        """Concatenation of :meth:`search` over ``keys``, in key order: a key
        listed twice contributes its rids twice."""
        stored, rids = self._keys, self._rids
        if self.unique:  # a run is one entry: the first at or above the key
            size = len(stored)
            return [
                rids[at]
                for key in keys
                if (at := bisect_left(stored, key)) < size and stored[at] == key
            ]
        found: list[int] = []
        for key in keys:
            start = bisect_left(stored, key)
            found += rids[start : bisect_right(stored, key, start)]
        return found

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys in order."""
        return (key for key, _ in groupby(self._keys))

    def rids(self) -> list[int]:
        """Every entry's rid, in entry (key) order."""
        return self._rids.tolist()

    def remap(self, old_to_new: Mapping[int, int]) -> None:
        """Point every entry at the rid its record moved to (a rewritten
        heap); keys, and the order within an equal-key run, stay."""
        self._rids = array("q", map(old_to_new.__getitem__, self._rids))

    def validate(self) -> None:
        """Check structural invariants; raises :class:`StorageError` on breakage.

        Used by property-based tests: one rid per key, keys in
        non-decreasing order (strictly increasing in a unique index).
        """
        if len(self._keys) != len(self._rids):
            raise StorageError(f"index {self.name!r}: keys and rids differ in length")
        self._check_order(self._keys)
