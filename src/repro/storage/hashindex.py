"""A hash index mapping equality keys to record ids (integers, see
:class:`~repro.storage.row.RecordId`).

The paper's first database design builds "Btree/hash indexes on the tuple_id
column of the first table and the tile_id column of the second table"; this
module provides the hash variant.  It supports only equality lookups, which
is exactly what tile-id and tuple-id joins need.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from ..errors import DuplicateKeyError, StorageError


class HashIndex:
    """An equality-only index backed by a Python dict of rid lists."""

    kind = "hash"

    def __init__(self, name: str, *, unique: bool = False) -> None:
        self.name = name
        self.unique = unique
        self._buckets: dict[Any, list[int]] = {}
        self._count = 0
        self.lookups = 0
        self.inserts = 0

    def __len__(self) -> int:
        """Number of (key, rid) entries stored."""
        return self._count

    def insert(self, key: Any, rid: int) -> None:
        """Insert one ``key -> rid`` entry."""
        if key is None:
            raise StorageError(f"index {self.name!r}: cannot index NULL keys")
        self.inserts += 1
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [rid]
        else:
            if self.unique:
                raise DuplicateKeyError(f"index {self.name!r}: duplicate key {key!r}")
            bucket.append(rid)
        self._count += 1

    def delete(self, key: Any, rid: int) -> bool:
        """Remove one ``key -> rid`` entry.  Returns False when absent."""
        bucket = self._buckets.get(key)
        if not bucket or rid not in bucket:
            return False
        bucket.remove(rid)
        if not bucket:
            del self._buckets[key]
        self._count -= 1
        return True

    def search(self, key: Any) -> list[int]:
        """Return every rid stored under ``key`` (empty list when absent)."""
        self.lookups += 1
        return list(self._buckets.get(key, ()))

    def search_many(self, keys: Sequence[Any]) -> list[int]:
        """Union of :meth:`search` over several keys, preserving key order."""
        results: list[int] = []
        for key in keys:
            results.extend(self.search(key))
        return results

    def remap(self, old_to_new: Mapping[int, int]) -> None:
        """Point every entry at the rid its record moved to (a rewritten heap)."""
        new = old_to_new.__getitem__
        for rids in self._buckets.values():
            rids[:] = map(new, rids)

    def items(self) -> Iterator[tuple[Any, int]]:
        """Yield every ``(key, rid)`` entry (unordered across keys)."""
        for key, rids in self._buckets.items():
            for rid in rids:
                yield key, rid

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys (unordered)."""
        return iter(self._buckets.keys())

    def validate(self) -> None:
        """Check that entry counts add up and no bucket is empty."""
        counted = 0
        for key, rids in self._buckets.items():
            if not rids:
                raise StorageError(
                    f"index {self.name!r}: empty bucket for key {key!r}"
                )
            counted += len(rids)
        if counted != self._count:
            raise StorageError(
                f"index {self.name!r}: entry count mismatch "
                f"({counted} found, {self._count} recorded)"
            )
