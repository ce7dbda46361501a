"""The Kyrix frontend.

"The frontend renderer is responsible for listening to users' activities,
communicating with the backend server to fetch data and rendering the
visualizations."  :class:`KyrixFrontend` plays that role: it tracks the
current canvas and viewport, translates pans and jumps into
:class:`~repro.net.protocol.DataRequest` objects according to the active
fetching scheme, consults the frontend cache, asks the service, adds the
modelled network term of each exchange, optionally prefetches ahead of the
user, and (optionally) rasterises what comes back.

Every interaction returns a :class:`~repro.metrics.collector.LatencyBreakdown`
so callers — the examples and the figure replays — can report the paper's
headline metric, average response time per interaction.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from ..compiler.plan import LayerPlan
from ..config import KyrixConfig
from ..core.jump import Jump, JumpType
from ..core.viewport import Viewport
from ..errors import JumpError, UnknownCanvasError
from ..metrics.collector import LatencyBreakdown, MetricsCollector
from ..net.link import SimulatedLink
from ..net.protocol import DataRequest, DataResponse, RowBatch, concat_rows
from ..server.cache import LRUCache
from ..server.prefetch import MomentumPrefetcher
from ..server.schemes import FetchScheme, dbox_scheme
from ..server.tile import TileScheme
from .renderer import RasterRenderer

if TYPE_CHECKING:
    from ..serving.base import DataService
    from ..storage.rtree import Rect

#: Predicted viewports warmed per pan (how far ahead the prefetcher looks).
LOOKAHEAD_STEPS = 1


class KyrixFrontend:
    """A headless frontend driving one Kyrix application.

    ``service`` is any :class:`~repro.serving.base.DataService` — the
    composed stack returned by :func:`repro.serving.build_service`, a bare
    :class:`~repro.server.backend.KyrixBackend`, a sharded
    :class:`~repro.cluster.router.ClusterRouter`, or a
    :class:`~repro.serving.transport.RemoteBackendStub` talking to a remote
    deployment; the frontend only uses the protocol surface (``handle()``,
    ``compiled``, ``config``).
    """

    def __init__(
        self,
        service: "DataService",
        scheme: FetchScheme | None = None,
        *,
        config: KyrixConfig | None = None,
        prefetcher: MomentumPrefetcher | None = None,
        render: bool = False,
    ) -> None:
        self.service = service
        self.scheme = scheme or dbox_scheme()
        self.config = config or service.config
        self.link = SimulatedLink()
        self.cache: LRUCache[DataResponse] = LRUCache(
            self.config.cache.frontend_entries
        )
        self.metrics = MetricsCollector()
        #: Requests the prefetcher has issued (they record no step).
        self.prefetch_requests = 0
        #: The one prefetch switch: ``None`` prefetches nothing.
        self.prefetcher = prefetcher
        self.renderer = (
            RasterRenderer(self.config.viewport_width, self.config.viewport_height)
            if render
            else None
        )

        self.current_canvas_id: str | None = None
        self.viewport: Viewport | None = None
        #: The dynamic box last fetched, per layer index.
        self._boxes: dict[int, Rect] = {}
        #: Objects currently visible, per layer index (for jump hit-testing):
        #: one batch per layer, whose rows become dicts as they are read.
        self.visible_objects: dict[int, RowBatch] = {}

    # -- application lifecycle ---------------------------------------------------------

    def load_initial_canvas(self) -> LatencyBreakdown:
        """Load the application's initial canvas at its initial viewport."""
        spec = self._spec()
        viewport = spec.initial_viewport()
        return self.load_canvas(spec.initial_canvas_id, viewport)

    def load_canvas(self, canvas_id: str, viewport: Viewport) -> LatencyBreakdown:
        """Switch to ``canvas_id`` with ``viewport`` and fetch its data."""
        if canvas_id not in self.service.compiled.canvases:
            raise UnknownCanvasError(f"no canvas {canvas_id!r}")
        plan = self.service.compiled.canvas_plan(canvas_id)
        self.current_canvas_id = canvas_id
        self.viewport = viewport.clamped_to(plan.width, plan.height)
        self._boxes = {}
        self.visible_objects = {}
        if self.prefetcher is not None:
            self.prefetcher.reset()
            self.prefetcher.observe(self.viewport)
        return self._fetch_current_viewport()

    # -- interactions --------------------------------------------------------------------

    def pan_to(self, x: float, y: float) -> LatencyBreakdown:
        """Pan so the viewport's top-left corner is at ``(x, y)``."""
        viewport = self._require_viewport().moved_to(x, y)
        return self._pan(viewport)

    def pan_by(self, dx: float, dy: float) -> LatencyBreakdown:
        """Pan by a canvas-space offset."""
        viewport = self._require_viewport().panned(dx, dy)
        return self._pan(viewport)

    def _pan(self, viewport: Viewport) -> LatencyBreakdown:
        plan = self.service.compiled.canvas_plan(self._require_canvas())
        self.viewport = viewport.clamped_to(plan.width, plan.height)
        if self.prefetcher is not None:
            self.prefetcher.observe(self.viewport)
        breakdown = self._fetch_current_viewport()
        self._run_prefetch()
        return breakdown

    def jump(self, jump: Jump, row: dict[str, Any] | None = None) -> LatencyBreakdown:
        """Take ``jump`` (optionally triggered by clicking ``row``)."""
        if jump.source != self.current_canvas_id:
            raise JumpError(
                f"jump source {jump.source!r} is not the current canvas "
                f"{self.current_canvas_id!r}"
            )
        destination_plan = self.service.compiled.canvas_plan(jump.destination)
        center = jump.destination_viewport_center(row or {})
        viewport = self._require_viewport()
        if center is None:
            center = (destination_plan.width / 2.0, destination_plan.height / 2.0)
        new_viewport = viewport.centered_at(*center)
        return self.load_canvas(jump.destination, new_viewport)

    def click(self, row: dict[str, Any], layer_index: int = 0) -> LatencyBreakdown:
        """Click an object: take the first jump whose selector accepts it."""
        spec = self._spec()
        for jump in spec.jumps_from(self._require_canvas()):
            if jump.triggered_by(row, layer_index):
                return self.jump(jump, row)
        raise JumpError(
            f"no jump from canvas {self.current_canvas_id!r} accepts the clicked object"
        )

    def available_jumps(self, row: dict[str, Any], layer_index: int = 0) -> list[tuple[Jump, str]]:
        """The jumps (and their labels) available for a clicked object."""
        spec = self._spec()
        return [
            (jump, jump.label_for(row))
            for jump in spec.jumps_from(self._require_canvas())
            if jump.triggered_by(row, layer_index)
        ]

    # -- data fetching ------------------------------------------------------------------------

    def _fetch_current_viewport(self) -> LatencyBreakdown:
        """Fetch (and optionally render) every dynamic layer for the viewport."""
        canvas_id = self._require_canvas()
        viewport = self._require_viewport()
        plan = self.service.compiled.canvas_plan(canvas_id)
        breakdown = LatencyBreakdown(cache_hit=True)

        if self.renderer is not None:
            self.renderer.clear()

        for layer_plan in plan.dynamic_layers():
            requests = self._requests_for_layer(layer_plan, viewport, plan)
            # No requests: the viewport is still inside the layer's dynamic
            # box, and the layer keeps the objects it has.
            if requests:
                parts = []
                for request in requests:
                    response, request_breakdown = self._issue_request(request)
                    breakdown.merge(request_breakdown)
                    parts.append(response.objects)
                # Rows stay tuples: whoever reads one has its dict built.
                self.visible_objects[layer_plan.layer_index] = concat_rows(parts)
            if self.renderer is not None:
                breakdown.render_ms += self._render_layer(
                    layer_plan, self.visible_objects[layer_plan.layer_index], viewport
                )
        if breakdown.requests == 0:
            # Nothing needed fetching (e.g. viewport still inside the dynamic
            # box): the step is a pure cache hit.
            breakdown.cache_hit = True
        self.metrics.record(breakdown)
        return breakdown

    def _requests_for_layer(
        self, layer_plan: LayerPlan, viewport: Viewport, canvas_plan
    ) -> list[DataRequest]:
        """Translate the viewport into requests according to the fetch scheme."""
        scheme = self.scheme
        if scheme.is_tile:
            tile_scheme = TileScheme(canvas_plan.width, canvas_plan.height, scheme.tile_size)
            return [
                DataRequest(
                    canvas_id=layer_plan.canvas_id,
                    layer_index=layer_plan.layer_index,
                    granularity="tile",
                    design=scheme.design,
                    tile_id=tile_id,
                    tile_size=scheme.tile_size,
                )
                for tile_id in tile_scheme.tiles_for_rect(viewport.to_rect())
            ]
        # Dynamic box: only fetch when the viewport escapes the current box.
        box = self._boxes.get(layer_plan.layer_index)
        if box is not None and box.contains(viewport.to_rect()):
            return []
        box = scheme.box_for(viewport, canvas_plan.width, canvas_plan.height)
        self._boxes[layer_plan.layer_index] = box
        return [self._box_request(layer_plan, box)]

    def _box_request(self, layer_plan: LayerPlan, box: Rect) -> DataRequest:
        """The request for one layer's objects inside ``box``."""
        return DataRequest(
            canvas_id=layer_plan.canvas_id,
            layer_index=layer_plan.layer_index,
            granularity="box",
            design=self.scheme.design,
            xmin=box.xmin,
            ymin=box.ymin,
            xmax=box.xmax,
            ymax=box.ymax,
        )

    def _issue_request(self, request: DataRequest) -> tuple[DataResponse, LatencyBreakdown]:
        """Serve a request from the frontend cache or from the backend."""
        breakdown = LatencyBreakdown()
        cached = self.cache.get(request.cache_key())
        if cached is not None:
            breakdown.cache_hit = True
            breakdown.objects_fetched = len(cached.objects)
            return cached, breakdown
        response = self.service.handle(request)
        breakdown.objects_fetched = response.object_count()
        payload = self.link.estimate_object_payload(breakdown.objects_fetched)
        breakdown.query_ms = response.query_ms
        breakdown.network_ms = self.link.round_trip_ms(payload)
        breakdown.requests = 1
        breakdown.bytes_fetched = payload
        breakdown.cache_hit = response.from_cache
        self.cache.put(request.cache_key(), response)
        return response, breakdown

    def _render_layer(
        self, layer_plan: LayerPlan, objects: RowBatch, viewport: Viewport
    ) -> float:
        spec = self._spec()
        layer = spec.canvas(layer_plan.canvas_id).layer(layer_plan.layer_index)
        if layer.renderer is None or self.renderer is None:
            return 0.0
        start = time.perf_counter()
        self.renderer.render_objects(objects, layer.renderer, viewport)
        return (time.perf_counter() - start) * 1000.0

    # -- prefetching -----------------------------------------------------------------------------

    def _run_prefetch(self) -> None:
        """Warm caches for the viewports the prefetcher predicts."""
        if self.prefetcher is None:
            return
        canvas_id = self._require_canvas()
        plan = self.service.compiled.canvas_plan(canvas_id)
        for predicted in self.prefetcher.predict(LOOKAHEAD_STEPS):
            clamped = predicted.clamped_to(plan.width, plan.height)
            for layer_plan in plan.dynamic_layers():
                for request in self._prefetch_requests(layer_plan, clamped, plan):
                    if self.cache.peek(request.cache_key()) is not None:
                        continue
                    response = self.service.handle(request)
                    self.cache.put(request.cache_key(), response)
                    self.prefetch_requests += 1

    def _prefetch_requests(
        self, layer_plan: LayerPlan, viewport: Viewport, canvas_plan
    ) -> list[DataRequest]:
        """Requests covering a *predicted* viewport (the layer's box stays)."""
        if self.scheme.is_tile:
            return self._requests_for_layer(layer_plan, viewport, canvas_plan)
        box = self.scheme.box_for(viewport, canvas_plan.width, canvas_plan.height)
        return [self._box_request(layer_plan, box)]

    # -- helpers --------------------------------------------------------------------------------

    def _spec(self):
        spec = self.service.compiled.spec
        if spec is None:
            raise UnknownCanvasError("backend plan carries no application spec")
        return spec

    def _require_canvas(self) -> str:
        if self.current_canvas_id is None:
            raise UnknownCanvasError("no canvas loaded; call load_initial_canvas()")
        return self.current_canvas_id

    def _require_viewport(self) -> Viewport:
        if self.viewport is None:
            raise UnknownCanvasError("no viewport; call load_initial_canvas()")
        return self.viewport

    def average_response_ms(self) -> float:
        """Average response time per recorded interaction step."""
        return self.metrics.average_response_ms()
