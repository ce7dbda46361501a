"""Flask deployment of the Kyrix backend.

The original Kyrix backend is a web server the browser frontend talks to
over HTTP; this module exposes the same surface for any
:class:`~repro.serving.base.DataService` — typically the stack
:func:`repro.serving.build_service` returns (a cached single backend or a
sharded cluster router):

* ``GET  /app``                         — application / canvas catalogue,
* ``GET  /canvas/<canvas_id>``          — canvas size and layer summary
  (read from the compiled plan, so it answers whatever the shards do),
* ``GET  /tile``                        — one static tile of one layer,
* ``GET  /dbox``                        — one dynamic box of one layer,
* ``GET  /stats``                       — backend counters (a cluster's also
  name its generation: epoch and shard regions),
* ``GET  /metrics``                     — Prometheus-text span histograms,
* ``GET  /trace/<trace_id>``            — one finished trace as JSON.

A failure answers ``{"error": ...}``: 400 when the request was bad, 503
when a part of the server was out (every replica of a shard, a worker
process, the far side of a shard's wire) or the cluster router was closed.

Flask is an optional dependency: importing this module without Flask
installed raises a clear error only when :func:`create_app` is called, so
the rest of the library (and the benchmark harness, which calls services
in-process instead of over HTTP) works without it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from typing import TYPE_CHECKING, Any

from ..errors import (
    AllReplicasFailedError,
    KyrixError,
    ServerError,
    ServiceClosedError,
    WorkerError,
)
from ..net.protocol import DataRequest, gather_rows
from ..serving.transport import TransportError
from ..telemetry import get_registry, get_tracer
from .schemes import DESIGN_MAPPING, DESIGN_SPATIAL

if TYPE_CHECKING:
    from ..serving.base import DataService

#: How deep :func:`_stats_payload` follows nested stats objects before
#: falling back to ``str`` (guards against accidental reference cycles).
_STATS_MAX_DEPTH = 8


def _stats_payload(value: Any, depth: int = 0) -> Any:
    """Recursively turn a stats object into JSON-encodable data.

    Services expose heterogeneous stats: dataclasses (``BackendStats``),
    objects with a ``snapshot()`` method (middleware counters), plain
    dicts/lists, and scalars — often *nested* (a cluster's
    snapshot holds per-shard stats objects).  Each level is resolved with
    the same rules, so every topology's ``/stats`` serves real JSON instead
    of ``str()`` debris.
    """
    if depth >= _STATS_MAX_DEPTH:
        return str(value)
    if is_dataclass(value) and not isinstance(value, type):
        return _stats_payload(asdict(value), depth + 1)
    if hasattr(value, "snapshot"):
        return _stats_payload(value.snapshot(), depth + 1)
    if isinstance(value, dict):
        return {str(key): _stats_payload(item, depth + 1) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_stats_payload(item, depth + 1) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def create_app(backend: "DataService"):
    """Create a Flask application serving any :class:`DataService`."""
    try:
        from flask import Flask, request
    except ImportError as exc:  # pragma: no cover - flask is installed in CI
        raise ServerError(
            "Flask is required for the HTTP server; install repro[dev]"
        ) from exc

    app = Flask(f"kyrix-{backend.compiled.app_name}")

    def jsonify(payload: Any):
        # One form whatever ``app.debug`` says: Flask's compact ``jsonify``.
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return app.response_class(body + "\n", mimetype="application/json")

    @app.errorhandler(KyrixError)
    def _handle_kyrix_error(error: KyrixError):
        return jsonify({"error": str(error)}), 400

    # A part of the server failed, not the request: every replica of a
    # shard, a worker process, the far side of a shard's wire, or a closed
    # cluster router.
    @app.errorhandler(AllReplicasFailedError)
    @app.errorhandler(WorkerError)
    @app.errorhandler(TransportError)
    @app.errorhandler(ServiceClosedError)
    def _handle_outage(error: KyrixError):
        return jsonify({"error": str(error)}), 503

    @app.get("/app")
    def application_info():
        return jsonify(backend.compiled.describe())

    @app.get("/canvas/<canvas_id>")
    def canvas_metadata(canvas_id: str):
        return jsonify(backend.compiled.canvas_info(canvas_id))

    @app.get("/tile")
    def fetch_tile():
        params = _tile_params(request.args)
        response = backend.handle(params)
        return jsonify(_response_payload(response))

    @app.get("/dbox")
    def fetch_dbox():
        params = _box_params(request.args)
        response = backend.handle(params)
        return jsonify(_response_payload(response))

    @app.get("/stats")
    def stats():
        stats = backend.stats
        cache = getattr(backend, "cache", None)
        if cache is not None and stats is cache.stats:
            # A caching endpoint reports its cache's counters as its own;
            # the query counters are those of the service it wraps.
            stats = backend.inner.stats
        payload = _stats_payload(stats)
        if not isinstance(payload, dict):
            payload = {"stats": payload}
        if cache is not None:
            payload["cache_hit_rate"] = cache.stats.hit_rate()
        table = getattr(backend, "table", None)
        if table is not None:
            # A cluster's own stats are the scatter-gather's counters; each
            # layer above and below it counts its own events, and what is
            # true of the generation it is serving from sits beside them.
            payload["cache"] = cache.stats.snapshot()
            payload["coalescer"] = asdict(backend.coalescer.stats)
            payload["replica_sets"] = {
                str(shard_id): replica_set.stats.snapshot()
                for shard_id, replica_set in backend.replica_sets().items()
            }
            payload["epoch"] = table.epoch
            payload["partitionings"] = {
                canvas_id: partitioning.describe()
                for canvas_id, partitioning in table.partitionings.items()
            }
        return jsonify(payload)

    @app.get("/metrics")
    def metrics():
        body = get_registry().render_prometheus()
        return app.response_class(
            body, mimetype="text/plain; version=0.0.4; charset=utf-8"
        )

    @app.get("/trace/<trace_id>")
    def trace(trace_id: str):
        record = get_tracer().get_trace(trace_id)
        if record is None:
            return jsonify({"error": f"no finished trace {trace_id!r}"}), 404
        return jsonify(record)

    def _tile_params(args: Any) -> DataRequest:
        design = args.get("design", DESIGN_SPATIAL)
        if design not in (DESIGN_SPATIAL, DESIGN_MAPPING):
            raise ServerError(f"unknown design {design!r}")
        return DataRequest(
            canvas_id=args["canvas"],
            layer_index=int(args.get("layer", 0)),
            granularity="tile",
            design=design,
            tile_id=int(args["tile_id"]),
            tile_size=int(args.get("tile_size", 1024)),
        )

    def _box_params(args: Any) -> DataRequest:
        return DataRequest(
            canvas_id=args["canvas"],
            layer_index=int(args.get("layer", 0)),
            granularity="box",
            design=DESIGN_SPATIAL,
            xmin=float(args["xmin"]),
            ymin=float(args["ymin"]),
            xmax=float(args["xmax"]),
            ymax=float(args["ymax"]),
        )

    def _response_payload(response) -> dict[str, Any]:
        # The gather's canonical order on every topology: a single backend
        # answers in index order, which depends on what its tables hold.
        objects = gather_rows([response.objects])
        return {
            "objects": objects.to_dicts(),
            "count": len(objects),
            "query_ms": response.query_ms,
            "from_cache": response.from_cache,
            "queries_issued": response.queries_issued,
        }

    return app
