"""Counter probes and isolated leaf-kernel replays.

Counters are read from the program's public stats objects (``LRUCache.stats``,
``ClusterStats``, ``BackendStats``, ``CoalescerStats``, ``PagerStats``,
``WireStats``); leaf kernels (codec, partition lookup, index probes, row
fetch, parse/plan) are timed by replaying the inputs the traced pass captured
straight into the public functions.  Every probe finds its seam with
``getattr`` and contributes nothing when the seam is gone, so a layer can
be deleted without editing the benchmark.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

from repro.serving import collect_wire_stats, stack_layers

from .calibration import speed_factor
from .tracing import Captured


# ---------------------------------------------------------------------------
# Resetting to the common starting state
# ---------------------------------------------------------------------------


def _stats_objects(service: Any) -> Iterable[Any]:
    """Every resettable stats object reachable from the stack."""
    for layer in stack_layers(service):
        for holder in (layer, getattr(layer, "cache", None), getattr(layer, "coalescer", None)):
            stats = getattr(holder, "stats", None)
            if hasattr(stats, "reset"):
                yield stats


def reset_state(service: Any) -> None:
    """Empty every cache in the stack, zero its counters, collect garbage.

    Called before every repetition so each starts from the same state;
    sessions build fresh frontends, so the frontend cache starts empty too.
    """
    for layer in stack_layers(service):
        cache = getattr(layer, "cache", None)
        if hasattr(cache, "clear"):
            cache.clear()
    for stats in _stats_objects(service):
        stats.reset()
    gc.collect()


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def _databases(service: Any) -> list[Any]:
    """The databases queries run against (one per shard, or the single one)."""
    found = []
    for layer in stack_layers(service):
        database = getattr(layer, "database", None)
        if hasattr(database, "pager_stats") and database not in found:
            found.append(database)
    return found


def read_counters(service: Any) -> dict[str, float]:
    """A flat snapshot of every counter the per-layer ratios are built from.

    Keys are the suite's own; a seam that is missing contributes no key.
    Monotonic sources without a reset (wire bytes, pager) are read as
    totals; callers subtract two snapshots.
    """
    counters: dict[str, float] = defaultdict(float)
    seen: set[int] = set()

    def first_sight(stats: Any) -> bool:
        # Forwarding middleware exposes the stats object of the layer below.
        fresh = stats is not None and id(stats) not in seen
        seen.add(id(stats))
        return fresh

    for depth, layer in enumerate(stack_layers(service)):
        cache_stats = getattr(getattr(layer, "cache", None), "stats", None)
        if hasattr(cache_stats, "hits") and first_sight(cache_stats):
            # The outermost layer's cache is the router's only when that
            # layer scatters (has children); every other LRU sits on a
            # backend or shard.
            scope = "router" if depth == 0 and getattr(layer, "children", None) else "shard"
            counters[f"{scope}_cache_hits"] += cache_stats.hits
            counters[f"{scope}_cache_lookups"] += cache_stats.hits + cache_stats.misses
            counters["cache_evictions"] += cache_stats.evictions
        coalescer_stats = getattr(getattr(layer, "coalescer", None), "stats", None)
        if hasattr(coalescer_stats, "followers") and first_sight(coalescer_stats):
            counters["coalesce_followers"] += coalescer_stats.followers
            counters["coalesce_total"] += coalescer_stats.leaders + coalescer_stats.followers
        stats = getattr(layer, "stats", None)
        if not first_sight(stats):
            continue
        if hasattr(stats, "scatter_gathers"):
            counters["scatter_gathers"] += stats.scatter_gathers
            counters["shard_queries"] += stats.shard_queries
            counters["duplicates_removed"] += stats.duplicates_removed
            for shard_id, count in stats.per_shard_requests.items():
                counters[f"shard_requests:{shard_id}"] += count
        if hasattr(stats, "queries_issued") and hasattr(stats, "objects_returned"):
            counters["queries_issued"] += stats.queries_issued
            counters["query_objects"] += stats.objects_returned
    for database in _databases(service):
        pager = database.pager_stats
        counters["pager_hits"] += pager.hits
        counters["pager_lookups"] += pager.hits + pager.misses
    wire = collect_wire_stats(service)
    counters["wire_bytes"] += wire.bytes_total
    return dict(counters)


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def counter_metrics(totals: dict[str, float], steps: int) -> dict[str, float | None]:
    """Per-layer metrics that are pure counter arithmetic over ``steps`` steps."""
    counters = defaultdict(float, totals)
    metrics: dict[str, float | None] = {
        "wire_bytes_per_step": counters["wire_bytes"] / steps,
        "serving.router_cache_hit_ratio": _ratio(
            counters["router_cache_hits"], counters["router_cache_lookups"]
        ),
        "serving.shard_cache_hit_ratio": _ratio(
            counters["shard_cache_hits"], counters["shard_cache_lookups"]
        ),
        "serving.cache_evictions_per_kstep": counters["cache_evictions"] * 1000.0 / steps,
        "serving.coalesced_ratio": _ratio(
            counters["coalesce_followers"], counters["coalesce_total"]
        ),
        "cluster.fanout": _ratio(counters["shard_queries"], counters["scatter_gathers"]),
        "server.queries_per_step": counters["queries_issued"] / steps
        if "queries_issued" in totals
        else None,
        "server.rows_per_query": _ratio(
            counters["query_objects"], counters["queries_issued"]
        ),
        "storage.pager_hit_ratio": _ratio(
            counters["pager_hits"], counters["pager_lookups"]
        ),
    }
    if "scatter_gathers" in totals:
        metrics["cluster.dups_removed_per_step"] = counters["duplicates_removed"] / steps
        per_shard = [
            count for key, count in totals.items() if key.startswith("shard_requests:")
        ]
        if per_shard:
            metrics["cluster.shard_skew"] = max(per_shard) / (sum(per_shard) / len(per_shard))
    return metrics


# ---------------------------------------------------------------------------
# Isolated leaf replays
# ---------------------------------------------------------------------------


def _timed(function: Callable[[Any], Any], inputs: list[Any]) -> tuple[float, list[Any]]:
    """Total reference microseconds of ``function`` over ``inputs``, and its outputs.

    The best of three rounds: a replay is short, so one burst of
    interference would otherwise be most of the number.
    """
    best = float("inf")
    outputs: list[Any] = []
    for _ in range(3):
        before = speed_factor()
        start = time.perf_counter()
        outputs = [function(value) for value in inputs]
        elapsed = time.perf_counter() - start
        best = min(best, elapsed * 1e6 / ((before + speed_factor()) / 2.0))
    return best, outputs


def _source_of(service: Any) -> tuple[Any, Any] | None:
    """``(backend, table)`` of the unsharded placement/source table."""
    backend = None
    for layer in stack_layers(service):
        backend = getattr(getattr(layer, "cluster", None), "source", None) or (
            layer if hasattr(layer, "engine") and hasattr(layer, "database") else None
        )
        if backend is not None:
            break
    compiled = getattr(backend, "compiled", None)
    database = getattr(backend, "database", None)
    if compiled is None or database is None:
        return None
    for plan in compiled.all_layer_plans():
        name = plan.placement_table or plan.source_table
        if not plan.static and name is not None and database.has_table(name):
            return backend, database.table(name)
    return None


def _request_rect(request: Any) -> tuple[float, float, float, float] | None:
    if getattr(request, "granularity", None) != "box":
        return None
    return (request.xmin, request.ymin, request.xmax, request.ymax)


def replay_net(captured: Captured, cap: int) -> dict[str, float | None]:
    """Codec kernels over the shard responses that crossed the wire seam."""
    responses = [r for r in captured.shard_responses if r.objects][:cap]
    if not responses:
        return {}
    from repro.net import columnar
    from repro.net.protocol import DataResponse

    objects = sum(len(response.objects) for response in responses)
    bin_encode_us, payloads = _timed(columnar.encode_response, responses)
    bin_decode_us, _ = _timed(columnar.decode_response, payloads)
    json_encode_us, texts = _timed(DataResponse.to_json, responses)
    json_decode_us, _ = _timed(DataResponse.from_json, texts)
    binary_bytes = sum(len(payload) for payload in payloads)
    json_bytes = sum(len(text.encode("utf-8")) for text in texts)
    return {
        "net.binary_encode_us_per_object": bin_encode_us / objects,
        "net.binary_decode_us_per_object": bin_decode_us / objects,
        "net.json_encode_us_per_object": json_encode_us / objects,
        "net.json_decode_us_per_object": json_decode_us / objects,
        "net.wire_bytes_per_object": binary_bytes / objects,
        "net.binary_to_json_bytes_ratio": binary_bytes / json_bytes,
    }


def replay_route(service: Any, captured: Captured, cap: int) -> dict[str, float | None]:
    """``Partitioning.shards_for_rect`` over the rects the router saw."""
    from repro.storage.rtree import Rect

    for layer in stack_layers(service):
        partitionings = getattr(layer, "partitionings", None)
        if not partitionings:
            continue
        by_canvas: dict[str, list[Rect]] = {}
        for request in captured.requests[:cap]:
            rect = _request_rect(request)
            if rect is not None and request.canvas_id in partitionings:
                by_canvas.setdefault(request.canvas_id, []).append(Rect(*rect))
        total_us, count = 0.0, 0
        for canvas_id, rects in by_canvas.items():
            elapsed, _ = _timed(partitionings[canvas_id].shards_for_rect, rects)
            total_us += elapsed
            count += len(rects)
        return {"cluster.route_us_per_request": total_us / count} if count else {}
    return {}


def replay_minisql(service: Any, captured: Captured, cap: int) -> dict[str, float | None]:
    """Parse + plan alone: ``SQLEngine.explain`` over the captured statements."""
    found = _source_of(service)
    statements = captured.sql[:cap]
    if found is None or not statements:
        return {}
    engine = getattr(found[0], "engine", None)
    if not hasattr(engine, "explain"):
        return {}
    elapsed, _ = _timed(engine.explain, statements)
    return {"minisql.parse_plan_us_per_query": elapsed / len(statements)}


def replay_storage(service: Any, captured: Captured, cap: int) -> dict[str, float | None]:
    """Index probes and row fetches on the unsharded placement/source table."""
    from repro.storage.rtree import Rect

    found = _source_of(service)
    if found is None:
        return {}
    backend, table = found
    metrics: dict[str, float | None] = {}
    rid_lists: list[list[Any]] = []

    rects = [Rect(*r) for r in map(_request_rect, captured.requests[:cap]) if r is not None]
    rtree = table.find_index_on("bbox", kinds=("rtree",))
    if rects and rtree is not None:
        elapsed, rid_lists = _timed(rtree.index.search, rects)
        metrics["storage.rtree_search_us_per_query"] = elapsed / len(rects)
        metrics["storage.rtree_rids_per_query"] = sum(map(len, rid_lists)) / len(rects)

    tiles = [r for r in captured.requests[:cap] if getattr(r, "granularity", None) == "tile"]
    if tiles:
        plan = backend.compiled.require_layer_plan(tiles[0].canvas_id, tiles[0].layer_index)
        mapping_name = plan.mapping_table_for(tiles[0].tile_size)
        if backend.database.has_table(mapping_name):
            mapping = backend.database.table(mapping_name)
            by_tile = mapping.find_index_on("tile_id", kinds=("btree",))
            by_tuple = table.find_index_on("tuple_id", kinds=("btree",))
            if by_tile is not None and by_tuple is not None:
                tile_ids = [request.tile_id for request in tiles]
                tile_us, mapping_rids = _timed(by_tile.index.search, tile_ids)
                # The join's other half: one tuple_id probe per mapped row.
                tuple_ids = [row[0] for rids in mapping_rids for row in mapping.fetch_many(rids)]
                tuple_us, found_rids = _timed(by_tuple.index.search, tuple_ids)
                metrics["storage.btree_lookup_us_per_query"] = (tile_us + tuple_us) / (
                    len(tile_ids) + len(tuple_ids)
                )
                rid_lists = [[rid for rids in found_rids for rid in rids]]

    rid_lists = rid_lists[: max(1, cap // 4)]  # a fetch is the dearest replay by far
    rows = sum(map(len, rid_lists))
    if rows:
        elapsed, _ = _timed(table.fetch_many, rid_lists)
        metrics["storage.fetch_us_per_row"] = elapsed / rows
    return metrics


def replay_leaves(
    service: Any, captured: Captured, cap: int
) -> tuple[dict[str, float | None], list[str]]:
    """Every leaf replay; one whose public function is gone is skipped, and named.

    This is the boundary that lets a later PR delete a layer without
    editing the benchmark: the metrics of a vanished kernel come out absent.
    """
    metrics: dict[str, float | None] = {}
    skipped: list[str] = []
    for replay in (
        lambda: replay_net(captured, cap),
        lambda: replay_route(service, captured, cap),
        lambda: replay_minisql(service, captured, cap),
        lambda: replay_storage(service, captured, cap),
    ):
        try:
            metrics.update(replay())
        except (AttributeError, ImportError, LookupError, TypeError) as gone:
            skipped.append(f"{type(gone).__name__}: {gone}")
    return metrics, skipped


def shard_rows_replicated_ratio(service: Any) -> float | None:
    """Sum of shard rows over source rows (boundary replicas make it > 1)."""
    found = _source_of(service)
    for layer in stack_layers(service):
        shards = getattr(layer, "shards", None)
        if shards and found is not None and found[1].row_count:
            held = sum(getattr(shard, "rows_by_table", {}).get(found[1].name, 0) for shard in shards)
            return held / found[1].row_count
    return None
