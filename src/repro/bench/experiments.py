"""Canned experiments, one per paper figure plus the ablations of DESIGN.md.

Each function builds its own stack (database + dataset + backend) at the
requested scale, runs the measurement loop from :mod:`repro.bench.harness`
and returns structured results; the pytest-benchmark targets and the
EXPERIMENTS.md regeneration script call these.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..cluster import build_cluster
from ..config import CacheConfig, KyrixConfig, NetworkConfig, PrefetchConfig, StorageConfig
from ..net.protocol import DataRequest
from ..client.frontend import KyrixFrontend
from ..client.session import ExplorationSession, SessionResult
from ..core.viewport import Viewport
from ..metrics.collector import SummaryStats, summarize
from ..datagen.eeg import EEGSpec
from ..datagen.synthetic import DotDatasetSpec, skewed_spec, uniform_spec
from ..datagen.traces import Trace, paper_traces
from ..server.dbox import ExactBoxCalculator, ExpandedBoxCalculator
from ..server.prefetch import MomentumPrefetcher
from ..server.schemes import (
    FetchScheme,
    dbox50_scheme,
    dbox_scheme,
    paper_schemes,
    tile_mapping_scheme,
    tile_spatial_scheme,
)
from ..server.tile import TileScheme
from ..serving import collect_wire_stats
from .apps import DotsStack, build_dots_backend, default_config
from .harness import (
    ExperimentResult,
    SchemeResult,
    _reset_serving_caches,
    _serving_caches,
    run_experiment,
    run_scheme_on_trace,
)

#: Default number of dots for benchmark-scale runs.  Density matches the
#: paper's 1e-3 dots per pixel² on a 32768 x 8192 canvas.
BENCH_NUM_POINTS = 250_000
#: Smaller scale used by the quick examples of the experiment code paths.
SMOKE_NUM_POINTS = 30_000
SMOKE_CANVAS = (16_384.0, 8_192.0)
#: Smallest scale, used by the integration tests (still large enough for the
#: Figure 5 traces, which need a canvas of at least 13 x 8 tiles of 1024).
TINY_NUM_POINTS = 8_000


# ---------------------------------------------------------------------------
# Scale handling
# ---------------------------------------------------------------------------


def dataset_for_scale(name: str, scale: str = "bench") -> DotDatasetSpec:
    """Dataset spec for one of the evaluation datasets at a given scale.

    ``scale`` is ``"bench"`` (default, ~250 k dots), ``"smoke"`` (~30 k dots,
    used by tests) or ``"paper"`` (the full 100 M-dot parameters — documented
    but not practical to run in pure Python).
    """
    name = name.lower()
    builder = skewed_spec if name == "skewed" else uniform_spec
    if scale == "paper":
        from ..datagen.synthetic import paper_scale_spec

        return paper_scale_spec(name)
    if scale == "smoke":
        width, height = SMOKE_CANVAS
        return builder(num_points=SMOKE_NUM_POINTS, canvas_width=width, canvas_height=height)
    if scale == "tiny":
        width, height = SMOKE_CANVAS
        return builder(num_points=TINY_NUM_POINTS, canvas_width=width, canvas_height=height)
    return builder(num_points=BENCH_NUM_POINTS)


def build_stack(
    dataset_name: str,
    *,
    scale: str = "bench",
    tile_sizes: tuple[int, ...] = (256, 1024, 4096),
    config: KyrixConfig | None = None,
) -> DotsStack:
    """Build the dots stack with mapping tables for the given tile sizes."""
    spec = dataset_for_scale(dataset_name, scale)
    return build_dots_backend(spec, config=config or default_config(), tile_sizes=tile_sizes)


# ---------------------------------------------------------------------------
# E1 / E2: Figures 6 and 7
# ---------------------------------------------------------------------------


def figure6(
    *,
    scale: str = "bench",
    stack: DotsStack | None = None,
    schemes: Sequence[FetchScheme] | None = None,
    repetitions: int = 1,
) -> ExperimentResult:
    """Figure 6: average response times of all schemes on *Uniform* data."""
    stack = stack or build_stack("uniform", scale=scale)
    schemes = list(schemes or paper_schemes())
    traces = paper_traces(stack.spec.canvas_width, stack.spec.canvas_height)
    return run_experiment(
        stack, schemes, list(traces.values()), name="figure6", repetitions=repetitions
    )


def figure7(
    *,
    scale: str = "bench",
    stack: DotsStack | None = None,
    schemes: Sequence[FetchScheme] | None = None,
    repetitions: int = 1,
) -> ExperimentResult:
    """Figure 7: average response times of all schemes on *Skewed* data."""
    stack = stack or build_stack("skewed", scale=scale)
    schemes = list(schemes or paper_schemes())
    traces = paper_traces(stack.spec.canvas_width, stack.spec.canvas_height)
    return run_experiment(
        stack, schemes, list(traces.values()), name="figure7", repetitions=repetitions
    )


# ---------------------------------------------------------------------------
# E4: fetch footprint (Figure 4's intuition, measured)
# ---------------------------------------------------------------------------


@dataclass
class FootprintResult:
    """Data fetched / requests issued for one scheme over one trace."""

    scheme: str
    trace: str
    requests: int
    objects: int
    fetched_area: float
    viewport_area: float

    @property
    def overfetch_ratio(self) -> float:
        """How much more area was fetched than the viewports strictly needed."""
        if self.viewport_area == 0:
            return 0.0
        return self.fetched_area / self.viewport_area


def fetch_footprint(
    *,
    scale: str = "smoke",
    stack: DotsStack | None = None,
    tile_sizes: tuple[int, ...] = (256, 1024, 4096),
) -> list[FootprintResult]:
    """Measure the area fetched and requests issued per scheme (Figure 4).

    Unlike Figures 6/7 this does not time anything: it counts, per trace,
    how many requests each granularity issues and how much canvas area it
    fetches compared to the area of the viewports themselves.
    """
    stack = stack or build_stack("uniform", scale=scale, tile_sizes=tile_sizes)
    spec = stack.spec
    traces = paper_traces(spec.canvas_width, spec.canvas_height)
    viewport_w = stack.backend.config.viewport_width
    viewport_h = stack.backend.config.viewport_height
    results: list[FootprintResult] = []

    for trace in traces.values():
        viewport_area = len(trace.positions) * viewport_w * viewport_h
        # Dynamic boxes (exact and 50%).
        for name, calculator in (
            ("dbox", ExactBoxCalculator()),
            ("dbox 50%", ExpandedBoxCalculator(expansion=0.5)),
        ):
            fetched_area = 0.0
            requests = 0
            current_box = None
            for x, y in trace.positions:
                viewport = Viewport(x, y, viewport_w, viewport_h)
                if current_box is not None and current_box.contains(viewport.to_rect()):
                    continue
                current_box = calculator.compute(viewport, spec.canvas_width, spec.canvas_height)
                fetched_area += current_box.area
                requests += 1
            results.append(
                FootprintResult(
                    scheme=name,
                    trace=trace.name,
                    requests=requests,
                    objects=int(fetched_area * spec.density),
                    fetched_area=fetched_area,
                    viewport_area=viewport_area,
                )
            )
        # Static tiles.
        for tile_size in tile_sizes:
            scheme = TileScheme(spec.canvas_width, spec.canvas_height, tile_size)
            seen: set[int] = set()
            requests = 0
            fetched_area = 0.0
            for x, y in trace.positions:
                viewport = Viewport(x, y, viewport_w, viewport_h)
                for tile_id in scheme.tiles_for_rect(viewport.to_rect()):
                    if tile_id in seen:
                        continue
                    seen.add(tile_id)
                    requests += 1
                    fetched_area += scheme.tile_rect(tile_id).area
            results.append(
                FootprintResult(
                    scheme=f"tile {tile_size}",
                    trace=trace.name,
                    requests=requests,
                    objects=int(fetched_area * spec.density),
                    fetched_area=fetched_area,
                    viewport_area=viewport_area,
                )
            )
    return results


# ---------------------------------------------------------------------------
# E6: database-design ablation (mapping vs spatial at fixed tile size)
# ---------------------------------------------------------------------------


def index_design_ablation(
    *,
    scale: str = "smoke",
    tile_size: int = 1024,
    stack: DotsStack | None = None,
) -> ExperimentResult:
    """Compare the two database designs of Section 3.1 at one tile size."""
    stack = stack or build_stack("uniform", scale=scale, tile_sizes=(tile_size,))
    schemes = [tile_spatial_scheme(tile_size), tile_mapping_scheme(tile_size)]
    traces = paper_traces(stack.spec.canvas_width, stack.spec.canvas_height)
    return run_experiment(stack, schemes, list(traces.values()), name="index_design")


# ---------------------------------------------------------------------------
# E7: caching and prefetching ablation
# ---------------------------------------------------------------------------


@dataclass
class PrefetchAblationResult:
    """Average response time with/without caches and prefetching."""

    variant: str
    average_response_ms: float
    cache_hit_rate: float
    prefetch_requests: int


def prefetch_cache_ablation(
    *,
    scale: str = "smoke",
    stack: DotsStack | None = None,
    trace_name: str = "a",
) -> list[PrefetchAblationResult]:
    """Measure dynamic boxes with caches/prefetching enabled and disabled.

    Variants: "no-cache", "cache", "cache+momentum".  The trace is repeated
    twice back-to-back within each variant so cache reuse has something to
    bite on (the paper's users revisit regions when they pan back).
    """
    stack = stack or build_stack("uniform", scale=scale, tile_sizes=())
    traces = paper_traces(stack.spec.canvas_width, stack.spec.canvas_height)
    trace = traces[trace_name]
    # A back-and-forth trace: out along the trace, then back again.
    positions = list(trace.positions) + list(reversed(trace.positions[:-1]))
    results: list[PrefetchAblationResult] = []

    variants: list[tuple[str, KyrixConfig, MomentumPrefetcher | None]] = []
    base = stack.backend.config
    no_cache = KyrixConfig.from_dict(
        {**base.to_dict(), "cache": {"enabled": False}}
    )
    with_cache = KyrixConfig.from_dict(base.to_dict())
    with_prefetch = KyrixConfig.from_dict(
        {**base.to_dict(), "prefetch": {"enabled": True, "strategy": "momentum"}}
    )
    variants.append(("no-cache", no_cache, None))
    variants.append(("cache", with_cache, None))
    variants.append(("cache+momentum", with_prefetch, MomentumPrefetcher()))

    for name, config, prefetcher in variants:
        _reset_serving_caches(stack)
        # The server-side cache honours the variant's cache setting too.
        for cache in _serving_caches(stack):
            cache.capacity = (
                config.cache.backend_entries if config.cache.enabled else 0
            )
        frontend = KyrixFrontend(
            stack.service, dbox_scheme(), config=config, prefetcher=prefetcher
        )
        session = ExplorationSession(frontend)
        outcome = session.run_trace(stack.canvas_id, positions)
        results.append(
            PrefetchAblationResult(
                variant=name,
                average_response_ms=outcome.average_response_ms,
                cache_hit_rate=outcome.metrics.cache_hit_rate(),
                prefetch_requests=outcome.metrics.counters.get("prefetch_requests", 0),
            )
        )
    # Restore the stack's default cache capacity for later users.
    for cache in _serving_caches(stack):
        cache.capacity = base.cache.backend_entries if base.cache.enabled else 0
    return results


# ---------------------------------------------------------------------------
# E10: cluster scaling (sharded scatter-gather serving)
# ---------------------------------------------------------------------------


@dataclass
class ClusterScalingResult:
    """One (dataset, shard count) cell of the cluster scaling experiment."""

    dataset: str
    shard_count: int
    strategy: str
    #: Shard execution topology: ``"threads"`` (in-process, GIL-bound) or
    #: ``"processes"`` (one worker process per shard replica).
    workers: str
    sessions: int
    steps: int
    wall_seconds: float
    #: Pan steps completed per wall-clock second across all sessions —
    #: *measured* end to end (shard queries execute on the router's thread
    #: pool; per-shard indexes shrink with shard count).
    throughput_steps_per_s: float
    #: Measured wall-clock milliseconds per pan step (the inverse of
    #: throughput): the number that must *decrease* with shard count.
    measured_step_ms: float
    #: Per-step response-time model (``LatencyBreakdown.total_ms``): the
    #: scatter-gather critical path plus simulated link time.  With
    #: parallel shard workers the measured wall-clock tracks this model
    #: instead of the sum over shards.
    latency: SummaryStats
    #: Mean query component of the same model (slowest shard + merge).
    simulated_query_ms: float
    #: Total objects delivered to the sessions — identical across shard
    #: counts when scatter-gather neither drops nor duplicates tuples.
    objects_fetched: int
    average_fanout: float
    coalesced_requests: int
    router_cache_hits: int
    duplicates_removed: int
    per_shard_requests: dict[int, int]
    #: Total bytes that crossed the shard transport boundary (payload plus
    #: frame headers, both directions), summed over every stub in the
    #: cluster via :func:`repro.serving.collect_wire_stats`.  Zero when the
    #: topology keeps shard calls in-process (``wire_shards=False``).
    wire_bytes_total: int = 0
    #: Per-stage span-duration percentiles from the telemetry registry
    #: (``{span_name: {"p50": ..., "p99": ...}}``), populated only when the
    #: experiment ran with ``telemetry=True``.
    stage_percentiles: dict[str, dict[str, float]] = field(default_factory=dict)

    def row(self) -> dict[str, float | str | int]:
        row: dict[str, float | str | int] = {
            "dataset": self.dataset,
            "shards": self.shard_count,
            "strategy": self.strategy,
            "workers": self.workers,
            "sessions": self.sessions,
            "steps": self.steps,
            "throughput_steps_s": round(self.throughput_steps_per_s, 1),
            "wall_ms_per_step": round(self.measured_step_ms, 3),
            "wire_bytes_per_step": round(
                self.wire_bytes_total / self.steps if self.steps else 0.0, 1
            ),
            "p50_ms": round(self.latency.median, 2),
            "p95_ms": round(self.latency.p95, 2),
            "p99_ms": round(self.latency.p99, 2),
            "max_ms": round(self.latency.maximum, 2),
            "sim_query_ms": round(self.simulated_query_ms, 2),
            "objects": self.objects_fetched,
            "fanout": round(self.average_fanout, 2),
            "coalesced": self.coalesced_requests,
            "cache_hits": self.router_cache_hits,
            "dups_removed": self.duplicates_removed,
        }
        for stage in sorted(self.stage_percentiles):
            snapshot = self.stage_percentiles[stage]
            row[f"{stage}_p50_ms"] = round(snapshot.get("p50", 0.0), 3)
            row[f"{stage}_p99_ms"] = round(snapshot.get("p99", 0.0), 3)
        return row


def concurrent_pan_workload(
    router,
    canvas_id: str,
    traces: Sequence[Trace],
    *,
    sessions: int = 4,
    scheme: FetchScheme | None = None,
    config: KyrixConfig | None = None,
) -> tuple[list[SessionResult], float]:
    """Replay pan traces from ``sessions`` concurrent threads over one router.

    Traces are assigned round-robin (session ``i`` replays
    ``traces[i % len(traces)]``), so every trace is exercised; once
    ``sessions`` exceeds the trace count, several sessions walk the same
    trace concurrently, issuing the identical requests the router's
    coalescer and shared cache deduplicate.  All sessions start together
    behind a barrier; returns their results and the total wall-clock
    seconds.
    """
    if not traces:
        raise ValueError("concurrent_pan_workload needs at least one trace")
    scheme = scheme or dbox_scheme()
    barrier = threading.Barrier(sessions + 1)
    results: list[SessionResult | None] = [None] * sessions
    errors: list[BaseException] = []
    # Sessions are built (and traces resolved) before the threads start:
    # a worker that failed pre-barrier would leave barrier.wait() below
    # hanging forever.
    workloads = [
        (
            ExplorationSession.for_service(router, scheme, config=config),
            list(traces[index % len(traces)].positions),
        )
        for index in range(sessions)
    ]

    def worker(index: int) -> None:
        session, positions = workloads[index]
        try:
            barrier.wait()
            results[index] = session.run_trace(canvas_id, positions)
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - started
    if errors:
        raise errors[0]
    return [result for result in results if result is not None], wall_seconds


#: EEG recording parameters per benchmark scale (see ``eeg_workload``).
EEG_SCALES = {
    "tiny": EEGSpec(channels=2, sample_rate_hz=16.0, duration_s=120.0),
    "smoke": EEGSpec(channels=4, sample_rate_hz=32.0, duration_s=240.0),
    "bench": EEGSpec(channels=8, sample_rate_hz=64.0, duration_s=600.0),
}


def eeg_pan_traces(
    canvas_width: float,
    canvas_height: float,
    *,
    viewport_w: float,
    viewport_h: float,
    steps: int = 8,
) -> list[Trace]:
    """Three rightward time sweeps, one per third of the recording.

    EEG exploration pans through *time*, not across a map, so the Figure 5
    traces (which need a tall canvas) do not apply; instead each trace
    sweeps its own third of the canvas left to right.  Sessions replaying
    different traces therefore live on different time ranges — i.e. on
    different shards of a time-partitioned cluster — which is exactly the
    traffic shape that lets process workers execute on separate cores.
    """
    traces: list[Trace] = []
    third = canvas_width / 3.0
    for index, name in enumerate(("early", "middle", "late")):
        x0 = index * third
        span = max(0.0, third - viewport_w)
        step = span / steps if steps else 0.0
        y = (canvas_height - viewport_h) * index / 2.0
        positions = [(x0 + i * step, y) for i in range(steps + 1)]
        traces.append(
            Trace(
                name=name,
                positions=tuple(positions),
                description=f"time sweep over the {name} third of the recording",
            )
        )
    return traces


def eeg_workload(scale: str = "smoke") -> tuple[Any, str, list[Trace], KyrixConfig]:
    """The EEG cluster workload: stack, canvas, traces and session config.

    The viewport is a time window (wide, lane-height tall) and the traces
    sweep it through the recording; the returned configuration carries the
    matching asymmetric viewport so sessions stay on canvas.
    """
    from .apps import build_eeg_backend, eeg_lane_height

    spec = EEG_SCALES.get(scale, EEG_SCALES["smoke"])
    config = default_config()
    viewport_w = spec.duration_s * 1000.0 / 8.0
    viewport_h = spec.channels * eeg_lane_height(spec) * 0.75
    config.viewport_width = int(viewport_w)
    config.viewport_height = int(viewport_h)
    stack = build_eeg_backend(spec, config=config)
    traces = eeg_pan_traces(
        stack.canvas_width,
        stack.canvas_height,
        viewport_w=viewport_w,
        viewport_h=viewport_h,
    )
    return stack, stack.canvas_id, traces, config


def hotspot_box_requests(
    app_name: str,
    canvas_id: str,
    layer_index: int,
    region,
    steps: int = 200,
) -> list[DataRequest]:
    """A skewed pan trace: box requests confined to one shard region.

    The "everyone pans over Manhattan" traffic shape used by the
    rebalance benchmark and the live-rebalance parity tests: every
    request's rectangle stays strictly inside ``region`` (a
    :class:`~repro.storage.rtree.Rect`, typically shard 0's region of a
    static partitioning), so the whole trace lands on a single shard while
    the rest of the cluster idles — maximal per-shard load skew by
    construction.
    """
    margin_x, margin_y = region.width / 16.0, region.height / 16.0
    box_w, box_h = region.width / 8.0, region.height / 8.0
    span_x = region.width - 2 * margin_x - box_w
    span_y = region.height - 2 * margin_y - box_h
    requests: list[DataRequest] = []
    for step in range(steps):
        x = region.xmin + margin_x + (step * span_x / 7.3) % span_x
        y = region.ymin + margin_y + (step * span_y / 11.9) % span_y
        requests.append(
            DataRequest(
                app_name=app_name,
                canvas_id=canvas_id,
                layer_index=layer_index,
                granularity="box",
                xmin=x,
                ymin=y,
                xmax=x + box_w,
                ymax=y + box_h,
            )
        )
    return requests


def cluster_scaling(
    *,
    scale: str = "smoke",
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    sessions: int = 4,
    datasets: Sequence[str] = ("uniform", "skewed"),
    strategy: str = "grid",
    coalescing: bool = True,
    parallel: bool = True,
    wire_shards: bool | None = None,
    worker_mode: str = "threads",
    telemetry: bool = False,
) -> list[ClusterScalingResult]:
    """Throughput/latency of the sharded cluster at increasing shard counts.

    For each dataset, one source stack is precomputed and then sharded at
    every requested shard count; ``sessions`` concurrent sessions replay
    pan traces through the cluster router with the dynamic-box scheme (the
    Figure 5 traces for the synthetic dot datasets, time sweeps for
    ``"eeg"``).  ``wall_ms_per_step`` / ``throughput_steps_s`` are measured
    end-to-end wall-clock: with ``parallel=True`` shard queries run on the
    router's thread pool (``parallel=False`` measures the sequential
    baseline the parity tests compare against), and with
    ``worker_mode="processes"`` every shard replica executes in its own
    worker process behind a socket transport, so pure-Python query work
    runs on real parallel cores instead of time-slicing one GIL.  The
    latency percentiles summarise the per-step response-time *model* —
    scatter-gather critical path (slowest shard + merge) plus simulated
    link time; ``simulated_query_ms`` isolates the query component of that
    model.

    With ``telemetry=True`` every cluster is built with the tracing plane
    on (:mod:`repro.telemetry`), and each result carries per-stage
    span-duration percentiles (``stage_percentiles``) flattened into the
    ``--json`` artifact as ``<stage>_p50_ms`` / ``<stage>_p99_ms`` columns.

    Every result reports the bytes that actually crossed the shard
    transport (``wire_bytes_total``, flattened as ``wire_bytes_per_step``).
    """
    results: list[ClusterScalingResult] = []
    for dataset_name in datasets:
        session_config: KyrixConfig | None = None
        if dataset_name == "eeg":
            stack, canvas_id, traces, session_config = eeg_workload(scale)
        else:
            stack = build_stack(dataset_name, scale=scale, tile_sizes=())
            canvas_id = stack.canvas_id
            traces = list(
                paper_traces(stack.spec.canvas_width, stack.spec.canvas_height).values()
            )
        for shard_count in shard_counts:
            cluster = build_cluster(
                stack.backend,
                shard_count=shard_count,
                strategy=strategy,
                coalescing=coalescing,
                parallel=parallel,
                wire_shards=wire_shards,
                worker_mode=worker_mode,
                telemetry=True if telemetry else None,
            )
            # Report what actually ran: the KD partitioner falls back to the
            # grid when a canvas has too little density signal, and that must
            # not be presented as a KD measurement.
            effective = "/".join(
                sorted({p.strategy for p in cluster.partitionings.values()})
            )
            strategy_label = (
                effective if effective == strategy
                else f"{effective} (requested {strategy})"
            )
            try:
                session_results, wall_seconds = concurrent_pan_workload(
                    cluster.router,
                    canvas_id,
                    traces,
                    sessions=sessions,
                    config=session_config,
                )
            except BaseException:
                # A failed workload must not leak the scatter executor or
                # (in process mode) the forked shard worker processes.
                cluster.close()
                raise
            step_times: list[float] = []
            query_times: list[float] = []
            steps = 0
            objects_fetched = 0
            for outcome in session_results:
                steps += outcome.steps
                objects_fetched += outcome.metrics.total_objects()
                for breakdown in outcome.metrics.steps:
                    step_times.append(breakdown.total_ms)
                    query_times.append(breakdown.query_ms)
            router_stats = cluster.router.stats
            wire_bytes = collect_wire_stats(cluster.router).bytes_total
            stage_percentiles: dict[str, dict[str, float]] = {}
            if telemetry:
                # Build-time configure() reset the registry, so this
                # snapshot covers exactly this (dataset, shard count) cell.
                from ..telemetry import get_registry

                for name, snapshot in get_registry().snapshot().items():
                    stage_percentiles[name] = {
                        "p50": snapshot["p50"],
                        "p99": snapshot["p99"],
                    }
            results.append(
                ClusterScalingResult(
                    dataset=dataset_name,
                    shard_count=shard_count,
                    strategy=strategy_label,
                    workers=worker_mode,
                    sessions=sessions,
                    steps=steps,
                    wall_seconds=wall_seconds,
                    throughput_steps_per_s=steps / wall_seconds if wall_seconds else 0.0,
                    measured_step_ms=wall_seconds * 1000.0 / steps if steps else 0.0,
                    latency=summarize(step_times or [0.0]),
                    simulated_query_ms=(
                        sum(query_times) / len(query_times) if query_times else 0.0
                    ),
                    objects_fetched=objects_fetched,
                    average_fanout=router_stats.average_fanout(),
                    coalesced_requests=router_stats.coalesced_requests,
                    router_cache_hits=router_stats.cache_hits,
                    duplicates_removed=router_stats.duplicates_removed,
                    per_shard_requests=dict(router_stats.per_shard_requests),
                    wire_bytes_total=wire_bytes,
                    stage_percentiles=stage_percentiles,
                )
            )
            # Release the scatter executor before the next shard count.
            cluster.close()
    return results


# ---------------------------------------------------------------------------
# E8: separability ablation
# ---------------------------------------------------------------------------


@dataclass
class SeparabilityResult:
    """Precompute cost and query latency with/without the separable shortcut."""

    variant: str
    precompute_ms: float
    average_response_ms: float


def separability_ablation(*, scale: str = "smoke") -> list[SeparabilityResult]:
    """Compare the separable shortcut against full placement precomputation."""
    from ..metrics.timer import Timer

    results: list[SeparabilityResult] = []
    for variant, precompute_placement in (("separable", False), ("precomputed", True)):
        spec = dataset_for_scale("uniform", scale)
        timer = Timer()
        timer.start()
        stack = build_dots_backend(
            spec, config=default_config(), precompute_placement=precompute_placement
        )
        precompute_ms = timer.stop()
        traces = paper_traces(spec.canvas_width, spec.canvas_height)
        outcome = run_scheme_on_trace(stack, dbox_scheme(), traces["a"])
        results.append(
            SeparabilityResult(
                variant=variant,
                precompute_ms=precompute_ms,
                average_response_ms=outcome.average_response_ms,
            )
        )
    return results
