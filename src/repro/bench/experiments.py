"""Canned experiments, one per paper figure plus its ablations.

Each function builds its own stack (database + dataset + backend) at the
requested scale, runs the measurement loop from :mod:`repro.bench.harness`
and returns structured results; the pytest-benchmark targets under
``benchmarks/`` call these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..config import CacheConfig, KyrixConfig, NetworkConfig, PrefetchConfig, StorageConfig
from ..net.protocol import DataRequest
from ..client.frontend import KyrixFrontend
from ..client.session import ExplorationSession
from ..core.viewport import Viewport
from ..datagen.synthetic import DotDatasetSpec, skewed_spec, uniform_spec
from ..datagen.traces import paper_traces
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
# Skewed cluster traffic
# ---------------------------------------------------------------------------


def hotspot_box_requests(
    app_name: str,
    canvas_id: str,
    layer_index: int,
    region,
    steps: int = 200,
) -> list[DataRequest]:
    """A skewed pan trace: box requests confined to one shard region.

    The "everyone pans over Manhattan" traffic shape used by the
    live-rebalance and autopilot tests: every request's rectangle stays
    strictly inside ``region`` (a :class:`~repro.storage.rtree.Rect`,
    typically shard 0's region of a static partitioning), so the whole
    trace lands on a single shard while the rest of the cluster idles —
    maximal per-shard load skew by construction.
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
    results: list[SeparabilityResult] = []
    for variant, precompute_placement in (("separable", False), ("precomputed", True)):
        spec = dataset_for_scale("uniform", scale)
        start = time.perf_counter()
        stack = build_dots_backend(
            spec, config=default_config(), precompute_placement=precompute_placement
        )
        precompute_ms = (time.perf_counter() - start) * 1000.0
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
