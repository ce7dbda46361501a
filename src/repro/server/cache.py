"""Response caches.

Kyrix "employs both a frontend cache and a backend cache.  If there is a
cache miss in both, Kyrix backend will talk to the backing DBMS to fetch
data."  Both caches are LRU over request identities
(:meth:`repro.net.protocol.DataRequest.cache_key`) and share this one
implementation: the frontend owns one per session, and every server owns
exactly one, sized by ``cache.backend_entries`` — in front of the backend
for a single-backend server, in front of the scatter-gather for a cluster
router (nothing below the router caches).  Concurrent sessions and the
parallel scatter-gather executor hammer the server-side cache from many
threads at once, so every operation (including the hit/miss/eviction
accounting) is guarded by one lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

ValueT = TypeVar("ValueT")


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        """A flat dictionary of the counters (for reports and cluster stats)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate(),
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0


class LRUCache(Generic[ValueT]):
    """A bounded, thread-safe least-recently-used cache.

    ``capacity`` of 0 disables caching entirely (every lookup misses), which
    is how the benchmark harness runs its no-cache ablations.  All
    operations — lookups, inserts, resizes and the stats counters they
    update — hold the cache's lock, so counter identities
    (``hits + misses == lookups``, ``inserts - evictions - invalidations ==
    len``) hold exactly under concurrent use.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, ValueT] = OrderedDict()
        # RLock: the capacity setter evicts while holding the lock.
        self._lock = threading.RLock()

    @property
    def capacity(self) -> int:
        return self._capacity

    @capacity.setter
    def capacity(self, capacity: int) -> None:
        """Resize the cache, evicting LRU entries that no longer fit.

        The benchmark ablations resize live caches (including down to 0);
        without eviction here a shrunk cache would keep serving entries
        beyond its capacity forever.
        """
        if capacity < 0:
            raise ValueError(f"cache capacity must be non-negative, got {capacity}")
        with self._lock:
            self._capacity = capacity
            self._evict_to_capacity()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> ValueT | None:
        """Return the cached value and refresh its recency, or None."""
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.stats.misses += 1
            return None

    def peek(self, key: Hashable) -> ValueT | None:
        """Return the cached value without touching recency or stats."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: ValueT) -> None:
        """Insert or refresh an entry, evicting LRU entries if full."""
        with self._lock:
            if self._capacity == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            self.stats.inserts += 1
            self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:  # repolint: disable=lock-discipline
        # Caller holds the lock.
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns True when it existed."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list[Hashable]:
        """Keys from least to most recently used."""
        with self._lock:
            return list(self._entries.keys())
