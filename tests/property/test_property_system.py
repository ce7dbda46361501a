"""Property-based tests for system-level invariants: tile arithmetic,
viewport geometry, the LRU cache and the row codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.viewport import Viewport
from repro.server.cache import LRUCache
from repro.server.tile import TileScheme
from repro.storage.row import compile_decoder, encode_row
from repro.storage.rtree import Rect
from repro.storage.schema import TableSchema


class TestTileProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.sampled_from([256, 512, 1024, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_tile_id_coords_roundtrip(self, columns, rows, tile_size):
        scheme = TileScheme(columns * tile_size, rows * tile_size, tile_size)
        for tile_id in range(0, scheme.tile_count, max(1, scheme.tile_count // 17)):
            column, row = scheme.tile_coords(tile_id)
            assert scheme.tile_id(column, row) == tile_id

    @given(
        st.floats(min_value=0, max_value=30000, allow_nan=False),
        st.floats(min_value=0, max_value=7000, allow_nan=False),
        st.sampled_from([256, 512, 1024]),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_returned_tile_intersects_the_viewport(self, x, y, tile_size):
        scheme = TileScheme(32_768, 8_192, tile_size)
        viewport = Rect(x, y, min(32_768, x + 1024), min(8_192, y + 1024))
        tiles = scheme.tiles_for_rect(viewport)
        assert tiles, "a viewport on the canvas always intersects at least one tile"
        for tile_id in tiles:
            assert scheme.tile_rect(tile_id).intersects(viewport)

    @given(
        st.floats(min_value=0, max_value=31000, allow_nan=False),
        st.floats(min_value=0, max_value=7000, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_point_is_inside_its_containing_tile(self, x, y):
        scheme = TileScheme(32_768, 8_192, 1024)
        tile_id = scheme.tile_containing(x, y)
        assert scheme.tile_rect(tile_id).contains_point(x, y)


class TestViewportProperties:
    @given(
        st.floats(min_value=-5000, max_value=40000, allow_nan=False),
        st.floats(min_value=-5000, max_value=40000, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_clamped_viewport_is_always_inside_canvas(self, x, y):
        viewport = Viewport(x, y, 1024, 1024).clamped_to(32_768, 8_192)
        assert viewport.within(32_768, 8_192)

    @given(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=-200, max_value=200, allow_nan=False),
        st.floats(min_value=-200, max_value=200, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_pan_is_invertible(self, x, y, dx, dy):
        viewport = Viewport(x, y, 100, 100)
        back = viewport.panned(dx, dy).panned(-dx, -dy)
        assert back.x == pytest.approx(viewport.x)
        assert back.y == pytest.approx(viewport.y)


class TestCacheProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(st.tuples(st.integers(min_value=0, max_value=30), st.booleans()), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_cache_never_exceeds_capacity_and_returns_correct_values(self, capacity, ops):
        cache: LRUCache[int] = LRUCache(capacity)
        shadow: dict[int, int] = {}
        for key, is_put in ops:
            if is_put:
                cache.put(key, key * 10)
                shadow[key] = key * 10
            else:
                value = cache.get(key)
                if value is not None:
                    assert value == shadow[key]
            assert len(cache) <= capacity

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_most_recently_put_key_is_always_present(self, puts):
        cache: LRUCache[int] = LRUCache(3)
        for key in puts:
            cache.put(key, key)
            assert cache.peek(key) == key


row_values = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-2**40, max_value=2**40)),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)),
    st.one_of(st.none(), st.text(max_size=40)),
    st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=100, max_value=200, allow_nan=False),
            st.floats(min_value=100, max_value=200, allow_nan=False),
        ),
    ),
)


class TestRowCodecProperties:
    schema = TableSchema.build(
        "t", [("a", "int"), ("b", "float"), ("c", "text"), ("d", "bbox")]
    )

    @given(row_values)
    @settings(max_examples=120, deadline=None)
    def test_encode_decode_roundtrip(self, values):
        coerced = self.schema.coerce_row(list(values))
        payload = encode_row(coerced, self.schema)
        assert compile_decoder(self.schema)(payload, 0, len(payload)) == coerced
