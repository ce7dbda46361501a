"""Page store and buffer pool.

The embedded engine keeps every page in a Python-level "disk" (a dict of
``bytes`` pages owned by :class:`PageStore`) and accesses them through a
:class:`BufferPool` with LRU eviction.  The pool counts what it does
(:class:`PagerStats`: hits, misses, reads, writes, evictions) and charges
nothing: how disk-resident a workload is reads off the miss count.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import MAX_PAGE_SIZE, StorageConfig
from ..errors import PageError


@dataclass
class PagerStats:
    """Counters describing buffer-pool behaviour."""

    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    allocations: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageStore:
    """The "disk": a growable collection of fixed-size pages."""

    def __init__(self, page_size: int) -> None:
        if page_size < 512:
            raise PageError(f"page size too small: {page_size}")
        if page_size > MAX_PAGE_SIZE:
            raise PageError(f"page size too large for 16-bit page offsets: {page_size}")
        self.page_size = page_size
        self._pages: dict[int, bytes] = {}
        self._next_page_no = 0
        # Every page starts as this one immutable image: a fresh page costs
        # the store a dict slot, not a page of zeros (the pool holds its
        # real bytes until it is evicted or flushed).
        self._zero_page = bytes(page_size)

    def __len__(self) -> int:
        return len(self._pages)

    def allocate(self) -> int:
        """Allocate a new zeroed page and return its page number."""
        page_no = self._next_page_no
        self._next_page_no += 1
        self._pages[page_no] = self._zero_page
        return page_no

    def free(self, page_no: int) -> None:
        """Release a page; its number is never handed out again."""
        if self._pages.pop(page_no, None) is None:
            raise PageError(f"page {page_no} does not exist")

    def read(self, page_no: int) -> bytes:
        if page_no not in self._pages:
            raise PageError(f"page {page_no} does not exist")
        return self._pages[page_no]

    def write(self, page_no: int, data: bytes) -> None:
        if page_no not in self._pages:
            raise PageError(f"page {page_no} does not exist")
        if len(data) != self.page_size:
            raise PageError(
                f"page {page_no}: payload is {len(data)} bytes, "
                f"expected {self.page_size}"
            )
        self._pages[page_no] = bytes(data)


class BufferPool:
    """An LRU buffer pool in front of a :class:`PageStore`.

    Pages checked out for modification must be marked dirty via
    :meth:`mark_dirty`; dirty pages are written back on eviction or
    :meth:`flush`.
    """

    def __init__(self, store: PageStore, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise PageError("buffer pool capacity must be at least one page")
        self._store = store
        self._capacity = capacity_pages
        self.stats = PagerStats()
        # page_no -> mutable page image; OrderedDict gives us LRU ordering.
        self._frames: OrderedDict[int, bytearray] = OrderedDict()
        self._dirty: set[int] = set()

    @property
    def page_size(self) -> int:
        return self._store.page_size

    @property
    def capacity(self) -> int:
        return self._capacity

    def __contains__(self, page_no: int) -> bool:
        return page_no in self._frames

    # -- internal helpers ----------------------------------------------------

    def _evict_if_needed(self) -> None:
        while len(self._frames) > self._capacity:
            victim_no, victim = self._frames.popitem(last=False)
            self.stats.evictions += 1
            if victim_no in self._dirty:
                self._store.write(victim_no, bytes(victim))
                self._dirty.discard(victim_no)
                self.stats.writes += 1

    # -- public API -----------------------------------------------------------

    def allocate_page(self) -> int:
        """Allocate a fresh page and pin it in the pool (clean)."""
        page_no = self._store.allocate()
        self.stats.allocations += 1
        self._frames[page_no] = bytearray(self._store.page_size)
        self._frames.move_to_end(page_no)
        self._evict_if_needed()
        return page_no

    def get_page(self, page_no: int) -> bytearray:
        """Return the (mutable) in-memory image of a page, fetching on miss."""
        if page_no in self._frames:
            self.stats.hits += 1
            self._frames.move_to_end(page_no)
            return self._frames[page_no]
        self.stats.misses += 1
        self.stats.reads += 1
        frame = bytearray(self._store.read(page_no))
        self._frames[page_no] = frame
        self._frames.move_to_end(page_no)
        self._evict_if_needed()
        return frame

    def free_page(self, page_no: int) -> None:
        """Drop a page from the pool, unwritten, and from the store."""
        self._frames.pop(page_no, None)
        self._dirty.discard(page_no)
        self._store.free(page_no)

    def mark_dirty(self, page_no: int) -> None:
        """Record that the cached image of ``page_no`` was modified."""
        if page_no not in self._frames:
            raise PageError(f"page {page_no} is not resident in the buffer pool")
        self._dirty.add(page_no)

    def flush(self) -> None:
        """Write every dirty resident page back to the store."""
        for page_no in sorted(self._dirty):
            if page_no in self._frames:
                self._store.write(page_no, bytes(self._frames[page_no]))
                self.stats.writes += 1
        self._dirty.clear()

    def clear(self) -> None:
        """Flush and drop every resident page (cold-cache restart)."""
        self.flush()
        self._frames.clear()

    @classmethod
    def from_config(cls, config: StorageConfig) -> "BufferPool":
        """Build a store + pool pair from a :class:`StorageConfig`."""
        return cls(PageStore(config.page_size), config.buffer_pool_pages)
