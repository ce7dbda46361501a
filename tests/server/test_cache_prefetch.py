"""Tests for the LRU cache and the momentum prefetch predictor."""

import pytest

from repro.core.viewport import Viewport
from repro.server.cache import LRUCache
from repro.server.prefetch import MomentumPrefetcher


class TestLRUCache:
    def test_get_miss_returns_none(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        assert cache.stats.misses == 1

    def test_put_then_get(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")        # refresh "a"
        cache.put("c", 3)     # evicts "b"
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)    # refresh, not insert
        cache.put("c", 3)     # evicts "b"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_peek_does_not_touch_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("b") is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_invalidate_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_keys_in_lru_order(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert cache.keys() == ["b", "c", "a"]

    def test_hit_rate(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats.hit_rate() == 0.5

    def test_shrinking_capacity_evicts_down(self):
        cache = LRUCache(4)
        for key in ("a", "b", "c", "d"):
            cache.put(key, key)
        cache.get("a")            # "a" becomes most recent
        cache.capacity = 2
        assert len(cache) == 2
        assert cache.keys() == ["d", "a"]
        assert cache.stats.evictions == 2

    def test_capacity_set_to_zero_clears_and_disables(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.capacity = 0
        assert len(cache) == 0
        assert cache.get("a") is None
        cache.put("b", 2)         # inserts are no-ops at capacity 0
        assert len(cache) == 0

    def test_capacity_setter_rejects_negative(self):
        cache = LRUCache(4)
        with pytest.raises(ValueError):
            cache.capacity = -1

    def test_growing_capacity_keeps_entries(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.capacity = 4
        cache.put("c", 3)
        cache.put("d", 4)
        assert len(cache) == 4

    def test_stats_snapshot(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        snapshot = cache.stats.snapshot()
        assert snapshot["hits"] == 1
        assert snapshot["misses"] == 1
        assert snapshot["inserts"] == 1
        assert snapshot["hit_rate"] == 0.5


class TestMomentumPrefetcher:
    def test_no_prediction_without_history(self):
        prefetcher = MomentumPrefetcher()
        assert prefetcher.predict() == []
        prefetcher.observe(Viewport(0, 0, 100, 100))
        assert prefetcher.predict() == []

    def test_predicts_along_constant_velocity(self):
        prefetcher = MomentumPrefetcher()
        for x in (0, 100, 200):
            prefetcher.observe(Viewport(x, 0, 100, 100))
        predictions = prefetcher.predict(2)
        assert [p.x for p in predictions] == [300, 400]
        assert all(p.y == 0 for p in predictions)

    def test_stationary_user_predicts_nothing(self):
        prefetcher = MomentumPrefetcher()
        prefetcher.observe(Viewport(50, 50, 10, 10))
        prefetcher.observe(Viewport(50, 50, 10, 10))
        assert prefetcher.predict() == []

    def test_history_window_limits_memory(self):
        prefetcher = MomentumPrefetcher(history_window=2)
        for x in (0, 1000, 1010, 1020):
            prefetcher.observe(Viewport(x, 0, 10, 10))
        # Only the last two moves matter: velocity = 10, not 340.
        assert prefetcher.predict()[0].x == pytest.approx(1030)

    def test_reset_clears_history(self):
        prefetcher = MomentumPrefetcher()
        prefetcher.observe(Viewport(0, 0, 10, 10))
        prefetcher.observe(Viewport(10, 0, 10, 10))
        prefetcher.reset()
        assert prefetcher.predict() == []
