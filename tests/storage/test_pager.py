"""Tests for the page store and buffer pool."""

import pytest

from repro.config import StorageConfig
from repro.errors import PageError
from repro.storage.pager import BufferPool, PageStore


class TestPageStore:
    def test_allocate_returns_sequential_ids(self):
        store = PageStore(1024)
        assert store.allocate() == 0
        assert store.allocate() == 1
        assert len(store) == 2

    def test_read_unknown_page_raises(self):
        store = PageStore(1024)
        with pytest.raises(PageError):
            store.read(5)

    def test_write_validates_size(self):
        store = PageStore(1024)
        page = store.allocate()
        with pytest.raises(PageError):
            store.write(page, b"short")

    def test_write_then_read_roundtrip(self):
        store = PageStore(1024)
        page = store.allocate()
        payload = bytes([7]) * 1024
        store.write(page, payload)
        assert store.read(page) == payload

    def test_too_small_page_size_rejected(self):
        with pytest.raises(PageError):
            PageStore(64)

    def test_fresh_pages_share_one_zero_image(self):
        store = PageStore(1024)
        first, second = store.allocate(), store.allocate()
        assert store.read(first) == bytes(1024)
        assert store.read(first) is store.read(second)
        store.write(first, bytes([1]) * 1024)
        assert store.read(second) == bytes(1024)

    def test_free_forgets_the_page_and_never_reuses_its_number(self):
        store = PageStore(1024)
        page = store.allocate()
        store.free(page)
        assert len(store) == 0
        with pytest.raises(PageError):
            store.read(page)
        with pytest.raises(PageError):
            store.free(page)
        assert store.allocate() == page + 1

    def test_page_size_beyond_16_bit_offsets_rejected(self):
        # ``<H`` slot offsets and the rid's 16-bit slot field bound the page.
        with pytest.raises(PageError, match="16-bit"):
            PageStore(65_536)
        assert PageStore(65_535).page_size == 65_535


class TestBufferPool:
    def _pool(self, capacity=4):
        store = PageStore(1024)
        return store, BufferPool(store, capacity)

    def test_get_page_after_allocate_is_hit(self):
        _, pool = self._pool()
        page_no = pool.allocate_page()
        pool.get_page(page_no)
        assert pool.stats.hits == 1
        assert pool.stats.misses == 0

    def test_eviction_writes_back_dirty_pages(self):
        store, pool = self._pool(capacity=2)
        first = pool.allocate_page()
        frame = pool.get_page(first)
        frame[0] = 0xAB
        pool.mark_dirty(first)
        # Allocate enough pages to evict the first one.
        for _ in range(3):
            pool.allocate_page()
        assert first not in pool
        assert store.read(first)[0] == 0xAB

    def test_miss_reloads_from_store(self):
        store, pool = self._pool(capacity=2)
        first = pool.allocate_page()
        frame = pool.get_page(first)
        frame[1] = 0x42
        pool.mark_dirty(first)
        for _ in range(3):
            pool.allocate_page()
        reloaded = pool.get_page(first)
        assert reloaded[1] == 0x42
        assert pool.stats.misses >= 1

    def test_mark_dirty_requires_residency(self):
        _, pool = self._pool()
        with pytest.raises(PageError):
            pool.mark_dirty(99)

    def test_flush_clears_dirty_set(self):
        store, pool = self._pool()
        page_no = pool.allocate_page()
        frame = pool.get_page(page_no)
        frame[5] = 9
        pool.mark_dirty(page_no)
        pool.flush()
        assert store.read(page_no)[5] == 9

    def test_clear_flushes_and_drops_frames(self):
        _, pool = self._pool()
        page_no = pool.allocate_page()
        pool.clear()
        assert page_no not in pool

    def test_free_page_drops_a_dirty_frame_unwritten(self):
        store, pool = self._pool()
        page_no = pool.allocate_page()
        pool.get_page(page_no)[0] = 1
        pool.mark_dirty(page_no)
        pool.free_page(page_no)
        assert page_no not in pool
        assert len(store) == 0
        pool.flush()  # nothing left to write back
        assert pool.stats.writes == 0
        with pytest.raises(PageError):
            pool.get_page(page_no)

    def test_from_config(self):
        pool = BufferPool.from_config(StorageConfig(page_size=2048, buffer_pool_pages=16))
        assert pool.page_size == 2048
        assert pool.capacity == 16

    def test_hit_rate(self):
        _, pool = self._pool()
        page_no = pool.allocate_page()
        pool.get_page(page_no)
        pool.get_page(page_no)
        assert pool.stats.hit_rate() == 1.0
