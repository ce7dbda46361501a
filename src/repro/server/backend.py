"""The Kyrix backend server.

The backend owns the database and the compiled application plan.  It
answers :class:`~repro.net.protocol.DataRequest` objects coming from the
frontend — either a static tile by id or a dynamic box — by querying the
placement tables built by the
:class:`~repro.server.indexer.Indexer`, using the database design the
request names:

* ``spatial``: one bbox-intersection query against the R-tree,
* ``mapping``: an equality lookup on the tuple–tile mapping table joined to
  the placement table on ``tuple_id`` (B-tree indexes on both sides).

Each of the two shapes is prepared once per table (pair) on first use and
executed with the request's rectangle or tile id bound; no SQL text is built
or parsed per request.

Query time is measured per request (wall clock of the embedded engine) and
reported in the response so the frontend can break down the interaction
latency.

The backend is the cache-free engine terminal of every serving stack and
implements the :class:`~repro.serving.base.DataService` protocol:
:meth:`KyrixBackend.handle` always runs a real query.  The server-side
response cache is middleware composed *above* it by
:func:`repro.serving.build_service` — a
:class:`~repro.serving.middleware.CachingService` over the backend for a
single-backend server, the router's cache for a cluster (whose shards are
bare engines behind a lock) — so a request crosses exactly the paper's two
caches: the frontend's and the server's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..compiler.plan import CompiledApplication, LayerPlan
from ..config import KyrixConfig
from ..errors import FetchError
from ..minisql.executor import PreparedStatement, SQLEngine
from ..net.protocol import DataRequest, DataResponse, RowBatch
from ..storage.database import Database
from ..storage.rtree import Rect
from ..telemetry import get_tracer
from .indexer import Indexer, PrecomputeReport
from .schemes import DESIGN_MAPPING, DESIGN_SPATIAL
from .tile import TileScheme


def box_rect(request: DataRequest) -> Rect:
    """The rectangle a box request covers, its four bounds present and finite.

    Checked wherever a box is first read — here and in the cluster router,
    before any shard sees it — so bad bounds are the caller's error in
    every topology, never a failing shard's.
    """
    if None in (request.xmin, request.ymin, request.xmax, request.ymax):
        raise FetchError("box requests need xmin/ymin/xmax/ymax")
    for name in ("xmin", "ymin", "xmax", "ymax"):
        if not math.isfinite(bound := getattr(request, name)):
            raise FetchError(f"box bound {name} must be finite, got {bound!r}")
    return Rect(request.xmin, request.ymin, request.xmax, request.ymax)


@dataclass
class BackendStats:
    """Aggregate counters over the backend's lifetime."""

    queries_issued: int = 0
    objects_returned: int = 0
    total_query_ms: float = 0.0

    def reset(self) -> None:
        self.queries_issued = 0
        self.objects_returned = 0
        self.total_query_ms = 0.0


class KyrixBackend:
    """Serves viewport data requests for one compiled application."""

    def __init__(
        self,
        database: Database,
        compiled: CompiledApplication,
        config: KyrixConfig | None = None,
    ) -> None:
        self.database = database
        self.compiled = compiled
        self.config = config or (compiled.spec.config if compiled.spec else KyrixConfig())
        self.engine = SQLEngine(database)
        self.indexer = Indexer(database, compiled, engine=self.engine)
        self.stats = BackendStats()
        # The two query shapes, prepared on first use and keyed by the tables
        # they read: ``(table,)`` for the spatial one, ``(mapping table,
        # record table)`` for the mapping join.
        self._statements: dict[tuple[str, ...], PreparedStatement] = {}

    # -- lifecycle ------------------------------------------------------------------

    def precompute(self, tile_sizes: tuple[int, ...] = ()) -> list[PrecomputeReport]:
        """Run placement precomputation (and mapping tables for ``tile_sizes``)."""
        return self.indexer.precompute_all(tile_sizes=tile_sizes)

    def ensure_mapping_tables(self, tile_size: int) -> None:
        """Build the tuple–tile mapping tables for one tile size on demand."""
        for layer_plan in self.compiled.all_layer_plans():
            if not layer_plan.static:
                self.indexer.build_mapping_table(layer_plan, tile_size)

    # -- request handling ----------------------------------------------------------------

    def handle(self, request: DataRequest) -> DataResponse:
        """Answer one data request from the database.

        The terminal ``handle`` of every serving stack: it always runs a
        real query; middleware (caching, locking, transport, metrics)
        composes on top of it.
        """
        with get_tracer().span(
            "execute", design=request.design, granularity=request.granularity
        ) as span:
            layer_plan = self.compiled.require_layer_plan(
                request.canvas_id, request.layer_index
            )
            start = time.perf_counter()
            if request.granularity == "tile":
                objects, queries = self._fetch_tile(request, layer_plan)
            elif request.granularity == "box":
                objects, queries = self._fetch_box(request, layer_plan)
            else:
                raise FetchError(f"unknown granularity {request.granularity!r}")
            query_ms = (time.perf_counter() - start) * 1000.0

            response = DataResponse(
                request=request,
                objects=objects,
                query_ms=query_ms,
                from_cache=False,
                queries_issued=queries,
            )
            self.stats.queries_issued += queries
            self.stats.objects_returned += len(objects)
            self.stats.total_query_ms += query_ms
            span.set_attribute("queries", queries)
            span.set_attribute("objects", len(objects))
            return response

    def close(self) -> None:
        """Nothing to release: the engine holds no serving-side resources."""

    # -- per-design fetch paths -------------------------------------------------------------

    def _fetch_tile(
        self, request: DataRequest, layer_plan: LayerPlan
    ) -> tuple[RowBatch, int]:
        if request.tile_id is None or not request.tile_size:
            raise FetchError("tile requests need tile_id and tile_size")
        canvas_plan = self.compiled.canvas_plan(request.canvas_id)
        scheme = TileScheme(canvas_plan.width, canvas_plan.height, request.tile_size)
        rect = scheme.tile_rect(request.tile_id)
        if request.design == DESIGN_MAPPING:
            return self._query_mapping(layer_plan, request.tile_size, request.tile_id)
        if request.design == DESIGN_SPATIAL:
            return self._query_spatial(layer_plan, rect)
        raise FetchError(f"unknown database design {request.design!r}")

    def _fetch_box(
        self, request: DataRequest, layer_plan: LayerPlan
    ) -> tuple[RowBatch, int]:
        return self._query_spatial(layer_plan, box_rect(request))

    def _query_spatial(
        self, layer_plan: LayerPlan, rect: Rect
    ) -> tuple[RowBatch, int]:
        """One bbox-intersection query against the layer's spatial table."""
        table_name = layer_plan.placement_table or layer_plan.source_table
        if table_name is None:
            raise FetchError(
                f"layer {layer_plan.layer_name!r} has no queryable table; "
                "did precompute() run?"
            )
        statement = self._statements.get((table_name,))
        if statement is None:
            statement = self._statements[(table_name,)] = self.engine.prepare(
                f"SELECT * FROM {table_name} WHERE intersects(bbox, ?, ?, ?, ?)"
            )
        result = self.engine.execute(statement.bind(rect.xmin, rect.ymin, rect.xmax, rect.ymax))
        return RowBatch(result.columns, result.rows), 1

    def _query_mapping(
        self, layer_plan: LayerPlan, tile_size: int, tile_id: int
    ) -> tuple[RowBatch, int]:
        """Tile lookup through the tuple–tile mapping design.

        "At runtime, tile queries are answered by joining these two tables on
        the tuple_id column."
        """
        # The record table of the first database design: the precomputed
        # placement table, or (for separable layers) the raw table itself.
        place_table = layer_plan.placement_table or layer_plan.source_table
        if place_table is None:
            raise FetchError(
                f"layer {layer_plan.layer_name!r} has no record table for the "
                "mapping design; did precompute() run?"
            )
        mapping_table = layer_plan.mapping_table_for(tile_size)
        statement = self._statements.get((mapping_table, place_table))
        if statement is None:
            if not self.database.has_table(mapping_table):
                self.indexer.build_mapping_table(layer_plan, tile_size)
            columns = ", ".join(
                f"p.{name}" for name in self.database.table(place_table).schema.column_names
            )
            statement = self._statements[mapping_table, place_table] = self.engine.prepare(
                f"SELECT {columns} FROM {mapping_table} m "
                f"JOIN {place_table} p ON m.tuple_id = p.tuple_id "
                f"WHERE m.tile_id = ?"
            )
        result = self.engine.execute(statement.bind(tile_id))
        return RowBatch(result.columns, result.rows), 1
