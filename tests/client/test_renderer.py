"""Tests for the raster renderer and the net (link/protocol) layer."""

import pytest

from repro.client.renderer import RasterRenderer
from repro.core.rendering import dot_renderer, legend_renderer, rect_renderer
from repro.core.viewport import Viewport
from repro.errors import ClientError, KyrixError
from repro.net.link import (
    BANDWIDTH_MBPS,
    PER_OBJECT_BYTES,
    REQUEST_OVERHEAD_BYTES,
    RTT_MS,
    SimulatedLink,
)
from repro.net.protocol import DataRequest, DataResponse


class TestRasterRenderer:
    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ClientError):
            RasterRenderer(0, 100)

    def test_dot_inside_viewport_touches_pixels(self):
        renderer = RasterRenderer(100, 100)
        viewport = Viewport(0, 0, 100, 100)
        drawn = renderer.render_objects(
            [{"x": 50, "y": 50}], dot_renderer("x", "y", radius=2), viewport
        )
        assert drawn == 1
        assert renderer.nonzero_pixels() > 0

    def test_object_outside_viewport_is_clipped(self):
        renderer = RasterRenderer(100, 100)
        viewport = Viewport(0, 0, 100, 100)
        drawn = renderer.render_objects(
            [{"x": 500, "y": 500}], dot_renderer("x", "y"), viewport
        )
        assert drawn == 0
        assert renderer.nonzero_pixels() == 0

    def test_viewport_offset_applied(self):
        renderer = RasterRenderer(100, 100)
        viewport = Viewport(1000, 1000, 100, 100)
        renderer.render_objects([{"x": 1050, "y": 1050}], dot_renderer("x", "y"), viewport)
        snapshot = renderer.snapshot()
        assert snapshot[50, 50] > 0

    def test_rect_renderer_intensity(self):
        renderer = RasterRenderer(50, 50)
        viewport = Viewport(0, 0, 50, 50)
        renderer.render_objects(
            [{"x": 25, "y": 25}],
            rect_renderer(width=10, height=10),
            viewport,
        )
        assert renderer.total_intensity() >= 100  # 10x10 at intensity 1

    def test_viewport_anchored_label(self):
        renderer = RasterRenderer(50, 50)
        viewport = Viewport(5000, 5000, 50, 50)
        renderer.render_objects([{}], legend_renderer("legend"), viewport)
        assert renderer.nonzero_pixels() > 0  # drawn in screen space despite far viewport

    def test_clear_resets_frame(self):
        renderer = RasterRenderer(50, 50)
        viewport = Viewport(0, 0, 50, 50)
        renderer.render_objects([{"x": 10, "y": 10}], dot_renderer("x", "y"), viewport)
        renderer.clear()
        assert renderer.nonzero_pixels() == 0
        assert renderer.stats.frames == 1

    def test_unknown_primitive_kind_raises(self):
        renderer = RasterRenderer(10, 10)
        with pytest.raises(ClientError):
            renderer._draw({"kind": "hologram"}, Viewport(0, 0, 10, 10))


class TestSimulatedLink:
    def test_transfer_time_scales_with_bytes(self):
        link = SimulatedLink(rtt_ms=1.0, bandwidth_mbps=8.0)
        # 8 Mbit/s = 1 byte per microsecond: 1000 bytes -> 1 ms.
        assert link.transfer_ms(1000) == pytest.approx(1.0)

    def test_round_trip_includes_rtt_and_overhead(self):
        link = SimulatedLink(rtt_ms=5.0, bandwidth_mbps=8.0)
        # 8 Mbit/s = 1 byte per microsecond: the overhead alone costs time.
        assert REQUEST_OVERHEAD_BYTES == 256
        assert link.round_trip_ms(0) == pytest.approx(5.0 + 0.256)

    def test_link_is_stateless_arithmetic(self):
        link = SimulatedLink()
        latency = link.round_trip_ms(10_000)
        assert latency > RTT_MS
        # No counters, no clock: asking again changes nothing.
        assert link.round_trip_ms(10_000) == latency
        assert vars(link) == {"rtt_ms": RTT_MS, "bandwidth_mbps": BANDWIDTH_MBPS}

    def test_a_negative_rtt_is_rejected(self):
        with pytest.raises(KyrixError, match="rtt_ms"):
            SimulatedLink(rtt_ms=-1.0)

    def test_a_zero_bandwidth_is_rejected(self):
        with pytest.raises(KyrixError, match="bandwidth_mbps"):
            SimulatedLink(bandwidth_mbps=0)

    def test_estimate_object_payload(self):
        assert PER_OBJECT_BYTES == 64
        assert SimulatedLink().estimate_object_payload(7) == 7 * 64

    def test_many_small_requests_cost_more_than_one_big(self):
        """The core reason small tiles lose: per-request RTT dominates."""
        link = SimulatedLink()
        one_big = link.round_trip_ms(16 * 4096)
        sixteen_small = 16 * link.round_trip_ms(4096)
        assert sixteen_small > one_big


class TestProtocol:
    def test_request_json_roundtrip(self):
        request = DataRequest(
            app_name="a", canvas_id="c", layer_index=1, granularity="box",
            xmin=0, ymin=1, xmax=2, ymax=3,
        )
        assert DataRequest.from_json(request.to_json()) == request

    def test_tile_and_box_cache_keys_differ(self):
        tile = DataRequest("a", "c", 0, "tile", tile_id=1, tile_size=256)
        box = DataRequest("a", "c", 0, "box", xmin=0, ymin=0, xmax=1, ymax=1)
        assert tile.cache_key() != box.cache_key()

    def test_tile_cache_key_includes_design_and_size(self):
        spatial = DataRequest("a", "c", 0, "tile", design="spatial", tile_id=1, tile_size=256)
        mapping = DataRequest("a", "c", 0, "tile", design="mapping", tile_id=1, tile_size=256)
        other_size = DataRequest("a", "c", 0, "tile", design="spatial", tile_id=1, tile_size=512)
        assert spatial.cache_key() != mapping.cache_key()
        assert spatial.cache_key() != other_size.cache_key()

    def test_response_json_roundtrip(self):
        request = DataRequest("a", "c", 0, "tile", tile_id=3, tile_size=256)
        response = DataResponse(
            request=request, objects=[{"x": 1}], query_ms=1.5, queries_issued=1
        )
        restored = DataResponse.from_json(response.to_json())
        assert restored.objects == [{"x": 1}]
        assert restored.request.tile_id == 3

    def test_payload_size_estimate_vs_exact(self):
        request = DataRequest("a", "c", 0, "tile", tile_id=3, tile_size=256)
        response = DataResponse(request=request, objects=[{"x": 1}] * 10)
        assert response.payload_size(per_object_bytes=64) == 640
        assert response.payload_size() > 0
