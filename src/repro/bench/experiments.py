"""Canned experiments, one per paper figure plus its ablations.

Each function builds its own stack (database + dataset + backend) at the
requested scale, replays the paper's traces through :func:`replay` — the
one measurement loop — and returns the
:class:`~repro.client.session.SessionResult` of every replay; the
pytest-benchmark targets under ``benchmarks/`` call these.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Sequence

from ..config import KyrixConfig
from ..client.frontend import KyrixFrontend
from ..client.session import ExplorationSession, SessionResult
from ..core.viewport import Viewport
from ..datagen.synthetic import DotDatasetSpec, skewed_spec, uniform_spec
from ..datagen.traces import Trace, paper_traces
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
from ..serving.base import stack_layers
from .apps import DotsStack, build_dots_backend, default_config

#: A figure: one replay per bar, keyed ``(scheme name, trace name)``.
Figure = dict[tuple[str, str], SessionResult]

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
# The measurement loop
# ---------------------------------------------------------------------------


def replay(
    stack: DotsStack,
    scheme: FetchScheme,
    positions: Sequence[tuple[float, float]],
    *,
    config: KyrixConfig | None = None,
    prefetcher: MomentumPrefetcher | None = None,
) -> SessionResult:
    """Replay ``positions`` with ``scheme`` from a cold start.

    The paper's numbers are per-run averages over cold caches, so every
    server-side response cache on the stack's serving path is emptied and
    its counters zeroed, and the trace runs on a fresh frontend over
    ``stack.service`` — the cluster router when the stack was built with
    ``config.cluster.enabled``, the cached backend otherwise.
    """
    for layer in stack_layers(stack.service):
        cache = getattr(layer, "cache", None)
        if cache is not None:
            cache.clear()
            cache.stats.reset()
    # Collect pending garbage before the timed replay: the cache clears
    # above (and whatever the surrounding process did before calling in)
    # otherwise leave a full young generation behind, and the cyclic
    # collector then runs *inside* the first few timed steps.  A gen-2
    # pause on a large heap is tens of milliseconds — enough to invert a
    # scheme comparison on the tiny test scale.
    gc.collect()
    frontend = KyrixFrontend(
        stack.service,
        scheme,
        config=config or stack.backend.config,
        prefetcher=prefetcher,
    )
    return ExplorationSession(frontend).run_trace(stack.canvas_id, positions)


def replay_figure(
    stack: DotsStack, schemes: Sequence[FetchScheme], traces: dict[str, Trace]
) -> Figure:
    """Every scheme over every trace, one cold replay each."""
    return {
        (scheme.name, name): replay(stack, scheme, trace.positions)
        for scheme in schemes
        for name, trace in traces.items()
    }


# ---------------------------------------------------------------------------
# E1 / E2: Figures 6 and 7
# ---------------------------------------------------------------------------


def figure6(
    *,
    scale: str = "bench",
    stack: DotsStack | None = None,
    schemes: Sequence[FetchScheme] | None = None,
) -> Figure:
    """Figure 6: average response times of all schemes on *Uniform* data."""
    stack = stack or build_stack("uniform", scale=scale)
    traces = paper_traces(stack.spec.canvas_width, stack.spec.canvas_height)
    return replay_figure(stack, schemes or paper_schemes(), traces)


def figure7(
    *,
    scale: str = "bench",
    stack: DotsStack | None = None,
    schemes: Sequence[FetchScheme] | None = None,
) -> Figure:
    """Figure 7: average response times of all schemes on *Skewed* data."""
    stack = stack or build_stack("skewed", scale=scale)
    traces = paper_traces(stack.spec.canvas_width, stack.spec.canvas_height)
    return replay_figure(stack, schemes or paper_schemes(), traces)


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
        for box_scheme in (dbox_scheme(), dbox50_scheme()):
            fetched_area = 0.0
            requests = 0
            current_box = None
            for x, y in trace.positions:
                viewport = Viewport(x, y, viewport_w, viewport_h)
                if current_box is not None and current_box.contains(viewport.to_rect()):
                    continue
                current_box = box_scheme.box_for(viewport, spec.canvas_width, spec.canvas_height)
                fetched_area += current_box.area
                requests += 1
            results.append(
                FootprintResult(
                    scheme=box_scheme.name,
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
) -> Figure:
    """Compare the two database designs of Section 3.1 at one tile size."""
    stack = stack or build_stack("uniform", scale=scale, tile_sizes=(tile_size,))
    schemes = [tile_spatial_scheme(tile_size), tile_mapping_scheme(tile_size)]
    traces = paper_traces(stack.spec.canvas_width, stack.spec.canvas_height)
    return replay_figure(stack, schemes, traces)


# ---------------------------------------------------------------------------
# E7: caching and prefetching ablation
# ---------------------------------------------------------------------------


def prefetch_cache_ablation(
    *,
    scale: str = "smoke",
    stack: DotsStack | None = None,
    trace_name: str = "a",
) -> dict[str, SessionResult]:
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
    base = stack.backend.config
    variants: list[tuple[str, KyrixConfig, MomentumPrefetcher | None]] = [
        (
            "no-cache",
            KyrixConfig.from_dict(
                {**base.to_dict(), "cache": {"backend_entries": 0, "frontend_entries": 0}}
            ),
            None,
        ),
        ("cache", KyrixConfig.from_dict(base.to_dict()), None),
        ("cache+momentum", KyrixConfig.from_dict(base.to_dict()), MomentumPrefetcher()),
    ]
    results: dict[str, SessionResult] = {}
    for name, config, prefetcher in variants:
        # The server-side cache honours the variant's cache setting too.
        _set_serving_cache_capacity(stack, config)
        results[name] = replay(
            stack, dbox_scheme(), positions, config=config, prefetcher=prefetcher
        )
    # Restore the stack's default cache capacity for later users.
    _set_serving_cache_capacity(stack, base)
    return results


def _set_serving_cache_capacity(stack: DotsStack, config: KyrixConfig) -> None:
    for layer in stack_layers(stack.service):
        if getattr(layer, "cache", None) is not None:
            layer.cache.capacity = config.cache.backend_entries


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
        outcome = replay(stack, dbox_scheme(), traces["a"].positions)
        results.append(
            SeparabilityResult(
                variant=variant,
                precompute_ms=precompute_ms,
                average_response_ms=outcome.average_response_ms,
            )
        )
    return results
