"""The benchmark's fixed vocabulary: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root is :func:`contract` written out
(``json.dumps(contract(), indent=2)``); the smoke test asserts the two never
drift apart.  Everything else in the suite refers to metrics by the names
defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How long one driver run measures (``run_seconds`` of the contract).
RUN_SECONDS = 10

#: The paper's interactivity budget per pan/zoom step (Figures 6-7).
BUDGET_MS = 500.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    why: str
    #: Regression bound as a share of the parent's median; ``None`` for
    #: per-layer metrics, which carry no bound.
    bound: float | None = None


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    why: str


WORKLOADS: tuple[WorkloadInfo, ...] = (
    WorkloadInfo(
        "single_dbox",
        "unsharded backend, uniform dots, one cold dbox range query per step: "
        "minisql + storage + server do the work, cluster/net/transport none",
    ),
    WorkloadInfo(
        "single_tile256",
        "unsharded backend, skewed dots, dense region, ~9 tile-mapping requests per step: "
        "per-request overhead, B-tree lookup + join instead of the R-tree range path",
    ),
    WorkloadInfo(
        "cluster_cold",
        "4-shard default cluster, 2 concurrent cold sweeps crossing shard borders: "
        "routing, scatter, wire codec, dedup-merge; every cache misses",
    ),
    WorkloadInfo(
        "cluster_hot",
        "same cluster, fresh sessions walking Zipf-popular paths: router cache, "
        "coalescer and frontend cache do the work; differs from cluster_cold by caching alone",
    ),
)

#: What a user of the system sees.  Bounds are three times the run-to-run
#: spread of the noisiest workload on the reference box (README,
#: "Steadiness"), not the issue's flat 0.10, which leaves that box no margin.  ``setup_s``
#: carries the largest (the contract asks for that: one run sets up only a
#: few times).
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "dataset load + compile + build_service until the first request can be served",
           0.25),
    Metric("step_ms_mean", "ms", "lower",
           "mean wall time per step, the y-axis of Figures 6-7", 0.20),
    Metric("step_ms_p50", "ms", "lower",
           "median step, a step's time being its median over the repetitions", 0.20),
    Metric("step_ms_p95", "ms", "lower",
           "95th percentile step, likewise: the highest percentile a repetition supports", 0.20),
    Metric("steps_per_s", "1/s", "higher",
           "steps completed per wall second across all client threads", 0.20),
    Metric("peak_rss_mb", "MB", "lower", "ru_maxrss of the workload process", 0.05),
)

_L = "lower"
_H = "higher"

PER_LAYER: tuple[Metric, ...] = (
    # Demoted from end-to-end: they read 0 on healthy runs (or on single_*),
    # and the contract forbids end-to-end metrics that are ever 0.
    Metric("wire_bytes_per_step", "B", _L, "collect_wire_stats bytes_total / steps"),
    Metric("failed_step_ratio", "ratio", _L, "steps that raised or failed verification / attempted"),
    Metric("budget_miss_ratio", "ratio", _L, "steps over the 500 ms budget (failed count as misses) / attempted"),
    # client
    Metric("client.self_ms_per_step", "ms", _L, "step span minus the service.handle spans under it"),
    Metric("client.requests_per_step", "count", _L, "requests the frontend sent per step"),
    Metric("client.objects_per_step", "count", _L, "objects fetched per step"),
    Metric("client.cache_hit_ratio", "ratio", _H, "frontend LRU hits / lookups"),
    Metric("client.step_ms_p99", "ms", _L, "99th percentile step pooled over repetitions"),
    # serving
    Metric("serving.router_cache_hit_ratio", "ratio", _H, "router LRU hits / lookups"),
    Metric("serving.shard_cache_hit_ratio", "ratio", _H, "backend/shard LRU hits / lookups"),
    Metric("serving.cache_evictions_per_kstep", "1/kstep", _L, "evictions over every LRU per 1000 steps"),
    Metric("serving.coalesced_ratio", "ratio", _H, "coalescer followers / (leaders + followers)"),
    Metric("serving.lock_wait_ms_per_step", "ms", _L, "entry above SerializedService to entry below it"),
    Metric("serving.transport_ms_per_shard_call", "ms", _L, "TransportService span minus its inner span: encode + decode both ways"),
    # cluster
    Metric("cluster.router_self_ms_per_request", "ms", _L, "router span minus the time its shard spans cover"),
    Metric("cluster.route_us_per_request", "us", _L, "isolated Partitioning.shards_for_rect on the captured rects"),
    Metric("cluster.shard_critical_path_ms_per_request", "ms", _L, "time covered by a scatter's shard spans"),
    Metric("cluster.fanout", "count", _L, "shard queries per scatter-gather"),
    Metric("cluster.dups_removed_per_step", "count", _L, "boundary duplicates dropped by the gather per step"),
    Metric("cluster.shard_skew", "ratio", _L, "max / mean of per-shard request counts"),
    # net
    Metric("net.binary_encode_us_per_object", "us", _L, "columnar.encode_response over captured shard responses"),
    Metric("net.binary_decode_us_per_object", "us", _L, "columnar.decode_response over the same payloads"),
    Metric("net.json_encode_us_per_object", "us", _L, "DataResponse.to_json over captured shard responses"),
    Metric("net.json_decode_us_per_object", "us", _L, "DataResponse.from_json over the same payloads"),
    Metric("net.wire_bytes_per_object", "B", _L, "binary payload bytes per object"),
    Metric("net.binary_to_json_bytes_ratio", "ratio", _L, "binary payload bytes / JSON payload bytes"),
    # server
    Metric("server.backend_self_ms_per_query", "ms", _L, "backend span minus SQLEngine.execute span: row materialisation, response build"),
    Metric("server.queries_per_step", "count", _L, "DBMS queries issued per step"),
    Metric("server.rows_per_query", "count", _L, "objects returned per DBMS query"),
    # minisql
    Metric("minisql.execute_ms_per_query", "ms", _L, "proxy on backend.engine.execute"),
    Metric("minisql.parse_plan_us_per_query", "us", _L, "isolated SQLEngine.explain on the captured SQL"),
    Metric("minisql.us_per_row", "us", _L, "engine execute time per returned row"),
    # storage
    Metric("storage.rtree_search_us_per_query", "us", _L, "isolated RTreeIndex.search on the captured rects"),
    Metric("storage.rtree_rids_per_query", "count", _L, "record ids an R-tree probe returns"),
    Metric("storage.btree_lookup_us_per_query", "us", _L, "isolated B-tree equality probe on the captured tile ids"),
    Metric("storage.fetch_us_per_row", "us", _L, "isolated Table.fetch_many on the probed record ids"),
    Metric("storage.pager_hit_ratio", "ratio", _H, "buffer-pool hits / page requests during the timed phase"),
    # setup
    Metric("setup.load_s", "s", _L, "bulk load + DBA index build"),
    Metric("setup.compile_s", "s", _L, "spec validation and plan compilation"),
    Metric("setup.precompute_s", "s", _L, "placement / mapping-table precompute inside build_service"),
    Metric("setup.shard_build_s", "s", _L, "partition + per-shard index rebuild inside build_service"),
    Metric("setup.shard_rows_replicated_ratio", "ratio", _L, "sum of shard rows / source rows"),
    # process
    Metric("process.cpu_ms_per_step", "ms", _L, "process_time per step"),
    Metric("process.gc_gen2_per_kstep", "1/kstep", _L, "full collections per 1000 steps"),
    Metric("process.alloc_kb_per_step", "kB", _L, "tracemalloc peak of a fresh session's first load: what one step needs alive at once"),
    Metric("process.rep_spread_ratio", "ratio", _L, "(median - best) / best of step_ms_mean over repetitions"),
    Metric("process.speed_factor", "ratio", _L, "calibration kernel time / reference; reported time x factor = raw wall time"),
    # trace / telemetry
    Metric("trace.overhead_ratio", "ratio", _L, "traced / untraced single-session step_ms_mean - 1, best of two passes each"),
    Metric("telemetry.on_cost_ratio", "ratio", _L, "cluster_cold rebuilt with telemetry=True / rebuilt without - 1, best of two repetitions each"),
)

END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
BETTER = {metric.name: metric.better for metric in END_TO_END + PER_LAYER}
BOUNDS = {metric.name: metric.bound for metric in END_TO_END}


def contract() -> dict:
    """The ``BENCHMARK.json`` document this catalogue stands for."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
