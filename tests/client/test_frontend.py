"""Tests for the frontend: interactions, caching, dynamic-box protocol,
prefetching and session replay."""

import pytest

from repro.bench.apps import build_dots_application, default_config
from repro.client.frontend import KyrixFrontend
from repro.client.session import ExplorationSession
from repro.compiler import compile_application
from repro.config import INTERACTIVITY_BUDGET_MS, KyrixConfig
from repro.core.jump import Jump
from repro.core.viewport import Viewport
from repro.datagen.synthetic import load_dots
from repro.errors import JumpError, UnknownCanvasError
from repro.server.prefetch import MomentumPrefetcher
from repro.server.schemes import dbox50_scheme, dbox_scheme, tile_spatial_scheme
from repro.serving import build_service
from repro.storage.database import Database


@pytest.fixture()
def frontend(dots_stack):
    return KyrixFrontend(dots_stack.backend, dbox_scheme())


class TestLifecycle:
    def test_interactions_require_loaded_canvas(self, frontend):
        with pytest.raises(UnknownCanvasError):
            frontend.pan_by(10, 10)
        with pytest.raises(UnknownCanvasError):
            frontend.pan_to(0, 0)

    def test_load_initial_canvas(self, frontend):
        breakdown = frontend.load_initial_canvas()
        assert frontend.current_canvas_id == "dots"
        assert frontend.viewport is not None
        assert breakdown.objects_fetched > 0
        assert len(frontend.metrics) == 1

    def test_load_unknown_canvas_raises(self, frontend):
        with pytest.raises(UnknownCanvasError):
            frontend.load_canvas("nope", Viewport(0, 0, 100, 100))

    def test_viewport_clamped_to_canvas(self, frontend, dots_stack):
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        frontend.pan_to(10_000_000, 10_000_000)
        viewport = frontend.viewport
        assert viewport.x + viewport.width <= dots_stack.spec.canvas_width
        assert viewport.y + viewport.height <= dots_stack.spec.canvas_height


@pytest.fixture(scope="module")
def clickable_dots(tiny_uniform_spec):
    """The dots application plus a self-jump: clicking a dot centres on it."""
    config = default_config(viewport=512)
    app = build_dots_application(tiny_uniform_spec, config)
    app.add_jump(Jump("dots", "dots", "pan", new_viewport=lambda row: (row["x"], row["y"])))
    database = Database(config.storage)
    load_dots(database, tiny_uniform_spec)
    return build_service(config, database=database, compiled=compile_application(app))


class TestDynamicBoxProtocol:
    def test_first_viewport_needs_fetch(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox50_scheme())
        assert frontend.load_canvas("dots", Viewport(100, 100, 100, 100)).requests == 1

    def test_viewport_inside_box_skips_fetch(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox50_scheme())
        frontend.load_canvas("dots", Viewport(100, 100, 100, 100))
        # The box is (75, 75)-(225, 225): a pan inside it asks nothing...
        assert frontend.pan_to(110, 110).requests == 0
        # ...and one that escapes it fetches a new box.
        assert frontend.pan_to(400, 400).requests == 1

    def test_pan_within_expanded_box_skips_fetch(self, clickable_dots):
        frontend = KyrixFrontend(clickable_dots, dbox50_scheme(), render=True)
        frontend.load_canvas("dots", Viewport(1024, 1024, 512, 512))
        shown = list(frontend.visible_objects[0])
        assert shown
        breakdown = frontend.pan_by(50, 0)  # still inside the 50% larger box
        assert breakdown.requests == 0
        assert breakdown.cache_hit is True
        # The layer keeps what it showed, and draws it into the new frame.
        assert list(frontend.visible_objects[0]) == shown
        assert frontend.renderer.stats.frames == 2
        assert frontend.renderer.nonzero_pixels() > 0
        # ...and a visible object still takes its jump.
        clicked = frontend.visible_objects[0][0]
        assert frontend.click(clicked).requests == 1
        assert frontend.viewport == frontend.viewport.centered_at(clicked["x"], clicked["y"])

    def test_pan_outside_box_fetches_again(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox50_scheme())
        frontend.load_canvas("dots", Viewport(1024, 1024, 512, 512))
        breakdown = frontend.pan_by(2000, 0)
        assert breakdown.requests == 1

    def test_exact_dbox_fetches_every_step(self, frontend):
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        breakdown = frontend.pan_by(100, 0)
        assert breakdown.requests == 1

    def test_objects_cover_viewport(self, frontend, dots_stack):
        frontend.load_canvas("dots", Viewport(256, 256, 512, 512))
        objects = frontend.visible_objects[0]
        assert objects
        for obj in objects:
            assert 255 <= obj["x"] <= 769
            assert 255 <= obj["y"] <= 769


class TestTileFetching:
    def test_tile_scheme_requests_intersecting_tiles(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, tile_spatial_scheme(512))
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        assert frontend.metrics.steps[0].requests == 1
        breakdown = frontend.pan_to(256, 0)  # misaligned: straddles two tiles
        # One of the two tiles was already cached by the initial load.
        assert breakdown.requests == 1

    def test_frontend_cache_avoids_refetching_tiles(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, tile_spatial_scheme(512))
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        frontend.pan_to(512, 0)
        breakdown = frontend.pan_to(0, 0)  # back to the start: tile is cached
        assert breakdown.requests == 0

    def test_disabled_cache_refetches(self, dots_stack):
        config = KyrixConfig.from_dict(
            {**default_config(viewport=512).to_dict(), "cache": {"frontend_entries": 0}}
        )
        frontend = KyrixFrontend(dots_stack.backend, tile_spatial_scheme(512), config=config)
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        frontend.pan_to(512, 0)
        breakdown = frontend.pan_to(0, 0)
        assert breakdown.requests == 1


class TestMetricsAndRendering:
    def test_latency_components_recorded(self, frontend):
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        step = frontend.metrics.steps[0]
        assert step.network_ms > 0
        assert step.query_ms > 0
        assert step.bytes_fetched > 0
        assert frontend.average_response_ms() > 0

    def test_rendering_produces_pixels_and_time(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox_scheme(), render=True)
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        assert frontend.renderer.nonzero_pixels() > 0
        assert frontend.metrics.steps[0].render_ms >= 0

    def test_interactivity_budget_met_on_tiny_dataset(self, frontend):
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        for _ in range(5):
            frontend.pan_by(512, 0)
        assert max(frontend.metrics.total_times()) <= INTERACTIVITY_BUDGET_MS


class TestPrefetching:
    def test_momentum_prefetch_warms_frontend_cache(self, dots_stack):
        frontend = KyrixFrontend(
            dots_stack.backend, dbox_scheme(), prefetcher=MomentumPrefetcher()
        )
        frontend.load_canvas("dots", Viewport(0, 0, 512, 512))
        frontend.pan_by(512, 0)
        frontend.pan_by(512, 0)
        assert frontend.prefetch_requests > 0
        # The next pan continues the constant-velocity movement, so the
        # prefetched box serves it from the frontend cache.
        breakdown = frontend.pan_by(512, 0)
        assert breakdown.query_ms == 0.0


class TestJumps:
    def test_click_without_matching_jump_raises(self, frontend):
        frontend.load_initial_canvas()
        with pytest.raises(JumpError):
            frontend.click({"x": 0, "y": 0}, layer_index=0)

    def test_jump_from_wrong_canvas_raises(self, frontend, dots_stack):
        from repro.core.jump import Jump

        frontend.load_initial_canvas()
        with pytest.raises(JumpError):
            frontend.jump(Jump("other", "dots"))


class TestSession:
    def test_run_trace_excludes_initial_load(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox_scheme())
        session = ExplorationSession(frontend)
        positions = [(0, 0), (512, 0), (1024, 0)]
        result = session.run_trace("dots", positions)
        assert result.steps == 2
        assert len(result.metrics) == 2
        assert result.initial_load is not None
        assert result.average_response_ms > 0

    def test_a_returned_result_does_not_change(self, dots_stack):
        """Each result holds its own steps: the next replay on the same
        session resets the frontend's collector, not the earlier result."""
        frontend = KyrixFrontend(dots_stack.backend, dbox_scheme())
        session = ExplorationSession(frontend)
        first = session.run_trace("dots", [(0, 0), (512, 0), (1024, 0), (1536, 0)])
        before = (first.steps, first.total_requests(), len(first.metrics))
        assert before == (3, 3, 3)
        session.run_trace("dots", [(0, 0), (512, 0)])
        assert (first.steps, first.total_requests(), len(first.metrics)) == before

    def test_run_trace_counts_its_own_prefetches(self, dots_stack):
        session = ExplorationSession(
            KyrixFrontend(dots_stack.backend, prefetcher=MomentumPrefetcher())
        )
        first = session.run_trace("dots", [(0, 0), (512, 0), (1024, 0), (1536, 0)])
        second = session.run_trace("dots", [(0, 2048), (512, 2048), (1024, 2048)])
        assert first.prefetch_requests > second.prefetch_requests > 0
        assert session.frontend.prefetch_requests == (
            first.prefetch_requests + second.prefetch_requests
        )

    def test_run_trace_requires_positions(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox_scheme())
        with pytest.raises(ValueError):
            ExplorationSession(frontend).run_trace("dots", [])

    def test_run_interactions_mixed(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox_scheme())
        session = ExplorationSession(frontend)
        result = session.run_interactions(
            [
                {"action": "load", "canvas": "dots", "x": 0, "y": 0},
                {"action": "pan_by", "dx": 512, "dy": 0},
                {"action": "pan_to", "x": 1024, "y": 512},
            ]
        )
        assert result.steps == 2

    def test_run_interactions_unknown_action(self, dots_stack):
        frontend = KyrixFrontend(dots_stack.backend, dbox_scheme())
        session = ExplorationSession(frontend)
        with pytest.raises(ValueError):
            session.run_interactions([{"action": "wave"}])
