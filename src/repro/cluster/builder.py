"""One-call assembly of a sharded serving cluster from a single backend.

:func:`build_generation` is the only place a shard generation is made:
from one source backend and one **effective** configuration it indexes the
shards, attaches a serving stack to each, creates the generation's scatter
pool and per-canvas load histograms and returns the
:class:`~repro.cluster.router.ShardTable` that owns all of it.
:func:`build_cluster` folds its ``**cluster`` overrides — any
:class:`~repro.config.ClusterConfig` field, by its own name — into that one
configuration, builds generation 0 and puts a
:class:`~repro.cluster.router.ClusterRouter` in front; an online rebalance
(:mod:`repro.cluster.rebalancer`) builds generation N+1 through the same
function.  The router owns the cluster's one response cache (and its
coalescer); every shard replica below it is a bare engine behind a lock —
``[TransportService | LocalTransport] ∘ SerializedService ∘ KyrixBackend``,
built by :func:`~repro.serving.worker.replica_stack` whether it runs in
this process or in a worker.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..config import KyrixConfig
from ..server.backend import KyrixBackend
from ..telemetry import configure as configure_telemetry
from ..serving.base import DataService
from ..serving.replica import ReplicaService
from ..serving.transport import RemoteBackendStub
from ..serving.worker import WorkerPool, replica_stack
from .partitioner import LoadHistogram, Partitioning
from .router import LOAD_SAMPLES, ClusterRouter, ShardTable
from .sharded import ShardedIndexer, ShardHandle

if TYPE_CHECKING:
    from .rebalancer import LoadRebalancer


@dataclass
class ShardedCluster:
    """A built cluster: the router plus what outlives any one generation.

    Shards, partitionings and worker pool belong to the router's current
    :class:`~repro.cluster.router.ShardTable`; the properties below read
    it, so the handle cannot disagree with what is being served.
    """

    router: ClusterRouter
    #: The source backend the shards were split from.  An online rebalance
    #: re-shards it under a new partitioning, so the cluster keeps the
    #: reference for its whole lifetime (the caller owns the backend; this
    #: is not an extra copy of the data).
    source: KyrixBackend
    #: Tile sizes whose tuple–tile mapping tables were prebuilt per shard
    #: (a rebalance prebuilds the same ones on the new shard set).
    tile_sizes: tuple[int, ...] = ()
    #: The load rebalancer every built cluster carries (a lock, no
    #: thread; it does nothing until asked).
    rebalancer: "LoadRebalancer" = field(init=False, repr=False)

    @property
    def shards(self) -> list[ShardHandle]:
        return self.router.table.shards

    @property
    def partitionings(self) -> dict[str, Partitioning]:
        return self.router.table.partitionings

    @property
    def worker_pool(self) -> WorkerPool | None:
        """The current generation's worker-process pool (``None`` for the
        in-process thread topologies)."""
        return self.router.table.worker_pool

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def describe(self) -> dict[str, Any]:
        description = self.router.describe()
        pool = self.worker_pool
        if pool is not None:
            description["workers"] = pool.describe()
        return description

    def close(self) -> None:
        """Close the router and, with it, the current generation."""
        self.router.close()


def attach_shard_services(
    shards: list[ShardHandle],
    config: KyrixConfig,
    compiled: Any,
    *,
    generation: int = 0,
) -> WorkerPool | None:
    """Attach the serving stack ``config.cluster`` asks for to every shard.

    The one topology dispatch (called by :func:`build_generation` only).
    Every replica of every shard is the same chain —
    :func:`~repro.serving.worker.replica_stack`, a lock over a bare engine,
    behind the wire — and only where it runs differs:

    * ``threads``: in this process, over the shard's shared immutable index
      and its one lock (the embedded engine is not thread-safe), crossing
      an in-process wire when ``cluster.wire_shards`` is set;
    * ``processes``: in one forked worker per replica (the returned
      :class:`~repro.serving.worker.WorkerPool`), each serving the shard's
      backend it inherited from the fork — the index the caller built —
      reached through a
      :class:`~repro.serving.transport.RemoteBackendStub` over a socket.
      Once the workers are up the parent-side shard databases are
      **detached**: they only existed to be forked, and keeping them would
      hold every shard's rows in the parent beside the workers' copies.

    With ``cluster.replicas > 1`` the replicas are fronted by a
    :class:`~repro.serving.replica.ReplicaService` (load balancing, circuit
    breaking, failover).  ``generation`` names the rebalance epoch a worker
    pool serves (0 for the initial build): the new generation spawns while
    the old one still serves, and the generation keeps their process names
    apart.
    """
    cluster_config = config.cluster
    pool: WorkerPool | None = None
    if cluster_config.worker_mode == "processes":
        pool = WorkerPool(
            [
                (shard.shard_id, shard.backend)
                for shard in shards
                for _ in range(cluster_config.replicas)
            ],
            generation=generation,
        )
        pool.start()
    for shard in shards:
        replicas: list[DataService]
        if pool is not None:
            replicas = [
                RemoteBackendStub(
                    pool.handle_for(shard.shard_id, replica_index).transport(),
                    compiled,
                    config,
                )
                for replica_index in range(cluster_config.replicas)
            ]
        else:
            replicas = [
                replica_stack(
                    shard.backend, lock=shard.lock, wire=cluster_config.wire_shards
                )
                for _ in range(cluster_config.replicas)
            ]
        if cluster_config.replicas > 1:
            shard.service = ReplicaService(replicas)
        else:
            shard.service = replicas[0]
        if pool is not None:
            # Slim parent: the workers own the only live copies of the
            # rows now; the parent keeps counts (rows_by_table).
            shard.detach_database()
    return pool


def build_generation(
    source: KyrixBackend,
    config: KyrixConfig,
    *,
    partitionings: dict[str, Partitioning] | None = None,
    tile_sizes: tuple[int, ...] = (),
    epoch: int = 0,
) -> ShardTable:
    """Build one complete shard generation from one effective configuration.

    The only place that runs index → attach services:
    :func:`build_cluster` calls it for epoch 0 and
    :meth:`~repro.cluster.rebalancer.LoadRebalancer.rebalance` for epoch
    N+1 (new ``partitionings``, shard / replica counts ``replace``d in
    ``config.cluster``).  ``config`` is recorded on the returned table and
    is every shard backend's configuration, which process workers inherit
    and serve.  With
    ``cluster.parallel_shards`` and more than one shard the generation gets
    its scatter pool, one worker per shard (CPython starts a pool thread
    only on a submit, so a generation that never fans out starts none);
    every canvas gets an empty :class:`~repro.cluster.partitioner.LoadHistogram`.
    The caller owns the table until a router takes it; ``table.close()``
    tears it down.
    """
    config.cluster.validate()
    indexer = ShardedIndexer(source.database, source.compiled, config)
    shards, partitionings = indexer.build_shards(partitionings, tile_sizes=tile_sizes)
    pool = attach_shard_services(shards, config, source.compiled, generation=epoch)
    executor = None
    if config.cluster.parallel_shards and len(shards) > 1:
        executor = ThreadPoolExecutor(
            max_workers=len(shards), thread_name_prefix="kyrix-shard"
        )
    return ShardTable(
        shards=shards,
        partitionings=partitionings,
        config=config,
        epoch=epoch,
        worker_pool=pool,
        executor=executor,
        loads={canvas_id: LoadHistogram(LOAD_SAMPLES) for canvas_id in partitionings},
    )


def build_cluster(
    source_backend: KyrixBackend,
    *,
    config: KyrixConfig | None = None,
    telemetry: bool | None = None,
    tile_sizes: tuple[int, ...] = (),
    **cluster: Any,
) -> ShardedCluster:
    """Shard a precomputed backend into a scatter-gather serving cluster.

    ``source_backend`` must have run ``precompute()`` already: its placement
    (or separable source) tables are what gets split across shards.
    ``config`` is the configuration to serve (default: the backend's).
    ``**cluster`` overrides :class:`~repro.config.ClusterConfig` fields by
    their own names for this build (an unknown name is
    :func:`dataclasses.replace`'s ``TypeError``, raised before anything is
    built); ``telemetry`` overrides ``config.telemetry.enabled``.
    All of it is folded into **one** effective configuration up front, and
    that is the only configuration anything below sees — the router's
    ``config``, the shard table's, and the shard backends' — the ones
    worker processes inherit and serve.  ``tile_sizes`` pre-builds
    per-shard tuple–tile mapping tables so the mapping design serves its
    first tile request without a lazy build.

    Every cluster carries a ready-to-use
    :class:`~repro.cluster.rebalancer.LoadRebalancer` as
    ``cluster.rebalancer``; it migrates the shard set only when called.
    """
    config = config or source_backend.config
    if cluster:
        config = replace(config, cluster=replace(config.cluster, **cluster))
    if telemetry is not None:
        config = replace(
            config, telemetry=replace(config.telemetry, enabled=telemetry)
        )
    if telemetry is not None or config.telemetry.enabled:
        configure_telemetry(config.telemetry)

    tile_sizes = tuple(tile_sizes)
    table = build_generation(source_backend, config, tile_sizes=tile_sizes)
    router = ClusterRouter(table, source_backend.compiled)
    cluster = ShardedCluster(
        router=router, source=source_backend, tile_sizes=tile_sizes
    )
    # The router carries its cluster handle so callers that only hold the
    # service stack (e.g. `serving.build_service` output) can reach shard
    # bookkeeping without rebuilding a second ShardedCluster.
    router.cluster = cluster
    # Local imports: the rebalancer builds its generations through this
    # module, so top-level imports would be circular.
    from .rebalancer import LoadRebalancer

    cluster.rebalancer = LoadRebalancer(cluster)
    return cluster
