"""Tests for the dynamic box (``FetchScheme.box_for``) and the fetching-scheme registry."""

import pytest

from repro.core.viewport import Viewport
from repro.errors import FetchError
from repro.server.dbox import DynamicBoxState
from repro.server.schemes import (
    DESIGN_MAPPING,
    DESIGN_SPATIAL,
    FetchScheme,
    dbox50_scheme,
    dbox_scheme,
    paper_schemes,
    tile_mapping_scheme,
    tile_spatial_scheme,
)


class TestBoxFor:
    def test_exact_box_equals_viewport(self):
        viewport = Viewport(100, 200, 50, 60)
        box = dbox_scheme().box_for(viewport, 1000, 1000)
        assert box == viewport.to_rect()

    def test_expanded_box_is_50_percent_larger(self):
        viewport = Viewport(100, 100, 100, 100)
        box = dbox50_scheme().box_for(viewport, 10_000, 10_000)
        assert box.width == pytest.approx(150)
        assert box.height == pytest.approx(150)
        assert box.center == viewport.center

    def test_boxes_clipped_to_canvas(self):
        viewport = Viewport(0, 0, 100, 100)
        scheme = FetchScheme(name="dbox 100%", granularity="box", box_expansion=1.0)
        box = scheme.box_for(viewport, 150, 150)
        assert box.xmin == 0
        assert box.xmax <= 150

    def test_negative_expansion_rejected(self):
        with pytest.raises(FetchError):
            FetchScheme(name="dbox -10%", granularity="box", box_expansion=-0.1)

    # Box edges are cache keys and wire bytes, so they are pinned exactly:
    # these are the edges the former per-fetch box calculators produced.
    @pytest.mark.parametrize(
        "scheme, viewport, canvas, edges",
        [
            (dbox_scheme(), (1000, 2000, 1024, 768), (8192, 8192), (1000, 2000, 2024, 2768)),
            (dbox_scheme(), (0, 0, 1024, 1024), (8192, 8192), (0.0, 0.0, 1024, 1024)),
            (dbox_scheme(), (7500, 7900, 1024, 1024), (8192, 8192), (7500, 7900, 8192, 8192)),
            (dbox_scheme(), (0.3, 0.3, 0.1, 1000), (2000, 2000), (0.3, 0.3, 0.4, 1000.3)),
            (dbox_scheme(), (-100, -50, 5000, 4000), (4096, 2048), (0.0, 0.0, 4096, 2048)),
            (
                dbox_scheme(),
                (123.4, 56.7, 333.3, 222.2),
                (1e4, 1e4),
                (123.4, 56.7, 456.70000000000005, 278.9),
            ),
            (dbox50_scheme(), (1000, 2000, 1024, 768), (8192, 8192), (744.0, 1808.0, 2280.0, 2960.0)),
            (dbox50_scheme(), (0, 0, 1024, 1024), (8192, 8192), (0.0, 0.0, 1280.0, 1280.0)),
            (dbox50_scheme(), (7500, 7900, 1024, 1024), (8192, 8192), (7244.0, 7644.0, 8192, 8192)),
            (
                dbox50_scheme(),
                (0.3, 0.3, 0.1, 1000),
                (2000, 2000),
                (0.27499999999999997, 0.0, 0.425, 1250.3),
            ),
            (dbox50_scheme(), (-100, -50, 5000, 4000), (4096, 2048), (0.0, 0.0, 4096, 2048)),
            (
                dbox50_scheme(),
                (123.4, 56.7, 333.3, 222.2),
                (1e4, 1e4),
                (40.07499999999996, 1.1500000000000057, 540.0250000000001, 334.44999999999993),
            ),
        ],
        ids=[
            f"{name}-{case}"
            for name in ("dbox", "dbox50")
            for case in ("interior", "origin", "far-corner", "fractional", "oversized", "inexact")
        ],
    )
    def test_box_edges_are_pinned(self, scheme, viewport, canvas, edges):
        assert scheme.box_for(Viewport(*viewport), *canvas).as_tuple() == edges


class TestDynamicBoxState:
    def test_first_viewport_needs_fetch(self):
        state = DynamicBoxState()
        assert state.needs_fetch(Viewport(0, 0, 10, 10))

    def test_viewport_inside_box_skips_fetch(self):
        state = DynamicBoxState()
        viewport = Viewport(100, 100, 100, 100)
        box = dbox50_scheme().box_for(viewport, 10_000, 10_000)
        state.record_fetch(box)
        assert not state.needs_fetch(Viewport(110, 110, 100, 100))
        assert state.needs_fetch(Viewport(400, 400, 100, 100))

    def test_counters_and_reset(self):
        state = DynamicBoxState()
        state.record_fetch(Viewport(0, 0, 10, 10).to_rect())
        state.record_skip()
        assert (state.fetches, state.skips) == (1, 1)
        state.reset()
        assert state.current_box is None
        assert state.fetches == 0


class TestFetchSchemes:
    def test_paper_schemes_are_the_eight_of_the_figures(self):
        schemes = paper_schemes()
        assert len(schemes) == 8
        names = [scheme.name for scheme in schemes]
        assert names[0] == "dbox"
        assert names[1] == "dbox 50%"
        assert sum(1 for n in names if n.startswith("tile spatial")) == 3
        assert sum(1 for n in names if n.startswith("tile mapping")) == 3

    def test_scheme_validation(self):
        with pytest.raises(FetchError):
            FetchScheme(name="bad", granularity="sphere")
        with pytest.raises(FetchError):
            FetchScheme(name="bad", granularity="tile")  # missing tile size
        with pytest.raises(FetchError):
            FetchScheme(name="bad", granularity="box", design=DESIGN_MAPPING)

    def test_box_for_from_scheme(self):
        # Box edges are cache keys and wire bytes: the Dbox box is the
        # viewport's own rectangle, not ``scaled(1.0)``, which rounds these
        # edges differently.
        viewport = Viewport(0.3, 0.3, 0.1, 1000)
        exact = viewport.to_rect()
        assert exact.scaled(1.0).as_tuple() != exact.as_tuple()
        assert dbox_scheme().box_for(viewport, 2000, 2000).as_tuple() == exact.as_tuple()
        with pytest.raises(FetchError):
            tile_spatial_scheme(1024).box_for(viewport, 1000, 1000)

    def test_tile_schemes_carry_design(self):
        assert tile_spatial_scheme(1024).design == DESIGN_SPATIAL
        assert tile_mapping_scheme(1024).design == DESIGN_MAPPING

