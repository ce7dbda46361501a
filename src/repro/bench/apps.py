"""Ready-made Kyrix applications used by the benchmarks and examples.

The evaluation application is deliberately simple — one canvas, one dot
layer over a synthetic dataset — because the experiments compare *fetching
schemes*, not applications.  :func:`build_dots_backend` assembles the whole
stack (database, dataset, declarative spec, compiled plan, backend) in one
call so the benchmark harness and the quickstart example stay short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..compiler import CompiledApplication, compile_application
from ..config import CacheConfig, KyrixConfig, NetworkConfig, PrefetchConfig, StorageConfig
from ..core import (
    App,
    Application,
    Canvas,
    ColumnPlacement,
    Layer,
    Transform,
    dot_renderer,
)
from ..datagen.eeg import EEGSpec, lane_height as eeg_lane_height, load_eeg
from ..datagen.synthetic import DotDatasetSpec, load_dots
from ..server.backend import KyrixBackend
from ..storage.database import Database

if TYPE_CHECKING:
    from ..cluster import ShardedCluster
    from ..serving.base import DataService


@dataclass
class DotsStack:
    """Everything needed to drive the dots application."""

    spec: DotDatasetSpec
    database: Database
    application: Application
    compiled: CompiledApplication
    backend: KyrixBackend
    #: The composed serving stack (`serving.build_service` output) frontends
    #: talk to: the cluster router when ``config.cluster.enabled``, the
    #: cached backend otherwise.
    service: "DataService | None" = None
    #: Built when ``config.cluster.enabled`` is true.
    cluster: "ShardedCluster | None" = None

    @property
    def canvas_id(self) -> str:
        return "dots"


@dataclass
class EEGStack:
    """Everything needed to drive the temporal EEG application."""

    spec: EEGSpec
    database: Database
    application: Application
    compiled: CompiledApplication
    backend: KyrixBackend

    @property
    def canvas_id(self) -> str:
        return "temporal"

    @property
    def canvas_width(self) -> float:
        return self.spec.duration_s * 1000.0

    @property
    def canvas_height(self) -> float:
        return self.spec.channels * eeg_lane_height(self.spec)


def default_config(
    *,
    viewport: int = 1024,
    cache_enabled: bool = True,
    prefetch_enabled: bool = False,
    rtt_ms: float = 2.0,
    bandwidth_mbps: float = 1000.0,
) -> KyrixConfig:
    """The configuration used by the benchmarks (LAN-like link, caches on)."""
    return KyrixConfig(
        app_name="dots",
        storage=StorageConfig(),
        network=NetworkConfig(rtt_ms=rtt_ms, bandwidth_mbps=bandwidth_mbps),
        cache=CacheConfig(enabled=cache_enabled),
        prefetch=PrefetchConfig(enabled=prefetch_enabled),
        viewport_width=viewport,
        viewport_height=viewport,
    )


def _built_source_backend(service: "DataService") -> KyrixBackend:
    """The full (unsharded) source backend behind a factory-built stack.

    For a non-cluster configuration it is the terminal of the factory's
    stack; for a sharded stack the router's cluster handle keeps the source
    backend the shards were split from.
    """
    from ..cluster import ClusterRouter
    from ..serving import unwrap

    router = unwrap(service, ClusterRouter)
    if router is not None and router.cluster is not None:
        return router.cluster.source
    return unwrap(service, KyrixBackend)


def build_eeg_application(spec: EEGSpec, config: KyrixConfig | None = None) -> Application:
    """The temporal EEG view: one long canvas, one per-sample dynamic layer.

    Each sample is placed at (time in ms, channel lane offset + amplitude),
    so panning the canvas is panning through the recording — the MGH
    scenario of Section 4.  The per-sample transform goes through full
    placement precomputation (not separable), exercising the same placement
    tables the usmap parity stacks use.
    """
    config = config or default_config()
    lane_height = eeg_lane_height(spec)

    def place_sample(row):
        row["px"] = row["t_ms"]
        row["py"] = row["channel"] * lane_height + lane_height / 2.0 + row["value"]
        return row

    app = App("eeg", config=config)
    canvas = Canvas(
        "temporal",
        width=spec.duration_s * 1000.0,
        height=spec.channels * lane_height,
    )
    app.add_canvas(canvas)
    canvas.add_transform(
        Transform(
            transform_id="samplesTrans",
            query="SELECT sample_id, channel, t_ms, value FROM eeg_samples",
            transform_func=place_sample,
            columns=("sample_id", "channel", "t_ms", "value", "px", "py"),
        )
    )
    layer = Layer("samplesTrans", False)
    canvas.add_layer(layer)
    layer.add_placement(ColumnPlacement(x_column="px", y_column="py"))
    layer.add_rendering_func(dot_renderer("px", "py"))
    app.set_initial_canvas("temporal", 0, 0)
    return app


def build_eeg_backend(
    spec: EEGSpec | None = None,
    *,
    config: KyrixConfig | None = None,
    tile_sizes: tuple[int, ...] = (),
) -> EEGStack:
    """Assemble database + synthetic recording + compiled app + backend."""
    spec = spec or EEGSpec()
    config = config or default_config()
    database = Database(config.storage)
    load_eeg(database, spec)
    application = build_eeg_application(spec, config)
    compiled = compile_application(application)
    from ..serving import build_service

    backend = _built_source_backend(
        build_service(config, database=database, compiled=compiled, tile_sizes=tile_sizes)
    )
    return EEGStack(
        spec=spec,
        database=database,
        application=application,
        compiled=compiled,
        backend=backend,
    )


def build_dots_application(
    dataset: DotDatasetSpec, config: KyrixConfig | None = None
) -> Application:
    """Build the declarative spec of the dots application for ``dataset``.

    One canvas the size of the dataset's canvas, with a single dynamic layer
    whose transform selects every dot and whose placement reads x/y straight
    from the raw columns (the *separable* case — precomputation is skipped
    and queries hit the raw table's spatial index, exactly like the paper's
    synthetic-dot experiments).
    """
    config = config or default_config()
    app = App(name="dots", config=config)

    canvas = Canvas(
        canvas_id="dots",
        width=dataset.canvas_width,
        height=dataset.canvas_height,
    )
    transform = Transform(
        transform_id="dots_transform",
        query=f"SELECT tuple_id, x, y, bbox FROM {dataset.name}",
        columns=("tuple_id", "x", "y", "bbox"),
        separable=True,
        x_column="x",
        y_column="y",
    )
    canvas.add_transform(transform)
    layer = Layer(transform_id="dots_transform", static=False)
    layer.add_placement(
        ColumnPlacement(
            x_column="x",
            y_column="y",
            width=dataset.half_extent * 2,
            height=dataset.half_extent * 2,
        )
    )
    layer.add_rendering_func(dot_renderer("x", "y", radius=dataset.half_extent))
    canvas.add_layer(layer)

    app.add_canvas(canvas)
    app.set_initial_canvas("dots", 0.0, 0.0)
    return app


def build_dots_backend(
    dataset: DotDatasetSpec,
    *,
    config: KyrixConfig | None = None,
    tile_sizes: tuple[int, ...] = (),
    precompute_placement: bool = False,
) -> DotsStack:
    """Assemble database + data + compiled app + backend for ``dataset``.

    Parameters
    ----------
    tile_sizes:
        Tile sizes to pre-build tuple–tile mapping tables for (the mapping
        design builds them lazily otherwise, which would pollute the first
        measured request).
    precompute_placement:
        When true, the layer is forced through full placement
        precomputation even though it is separable — used by the
        separability ablation (experiment E8).
    """
    config = config or default_config()
    database = Database(config.storage)
    load_dots(database, dataset)

    application = build_dots_application(dataset, config)
    if precompute_placement:
        transform = application.canvas("dots").transforms["dots_transform"]
        transform.separable = False
    compiled = compile_application(application)

    # One factory assembles the whole serving stack (constructing and
    # precomputing the backend, sharding it per ``config.cluster``); the
    # cluster handle rides on the router so benchmarks can keep reading
    # shard-level statistics.
    from ..cluster import ClusterRouter
    from ..serving import build_service, unwrap

    service = build_service(
        config, database=database, compiled=compiled, tile_sizes=tile_sizes
    )
    router = unwrap(service, ClusterRouter)
    cluster = router.cluster if router is not None else None
    backend = cluster.source if cluster is not None else unwrap(service, KyrixBackend)
    return DotsStack(
        spec=dataset,
        database=database,
        application=application,
        compiled=compiled,
        backend=backend,
        service=service,
        cluster=cluster,
    )
