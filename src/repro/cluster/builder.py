"""One-call assembly of a sharded serving cluster from a single backend.

:func:`build_generation` is the only place a shard generation is made:
from one source backend and one **effective** configuration it indexes the
shards, attaches a serving stack to each and returns the
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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..config import KyrixConfig
from ..server.backend import KyrixBackend
from ..telemetry import configure as configure_telemetry
from ..serving.base import DataService
from ..serving.replica import ReplicaService
from ..serving.transport import RemoteBackendStub
from ..serving.worker import ShardSpec, WorkerPool, build_shard_spec, replica_stack
from .partitioner import Partitioning
from .router import ClusterRouter, ShardTable
from .sharded import ShardedIndexer, ShardHandle

if TYPE_CHECKING:
    from .autopilot import ClusterAutopilot
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
    #: The load rebalancer every built cluster carries (a lock and two
    #: thresholds, no thread; it does nothing until asked).
    rebalancer: "LoadRebalancer" = field(init=False, repr=False)
    #: The running control loop, when ``cluster.autopilot.enabled`` (or
    #: the ``autopilot=`` build override) asked for one.
    autopilot: "ClusterAutopilot | None" = field(default=None, repr=False)

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
        """Park the autopilot, then close the current generation."""
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
      :class:`~repro.serving.worker.WorkerPool`), each rebuilding its **own
      copy** of the index from one pickled
      :class:`~repro.serving.worker.ShardSpec` per shard and checking it
      against the spec's checksum before it reports ready — reached
      through a :class:`~repro.serving.transport.RemoteBackendStub` over a
      socket.  Once the workers are up the parent-side shard databases are
      **detached**: they only existed to seed the spec dumps, and keeping
      them would hold every shard's rows in the parent a second time.

    With ``cluster.replicas > 1`` the replicas are fronted by a
    :class:`~repro.serving.replica.ReplicaService` (load balancing, circuit
    breaking, failover).  ``generation`` names the rebalance epoch a worker
    pool serves (0 for the initial build): the new generation spawns while
    the old one still serves, and the generation keeps their process names
    and fixed-port ranges apart.
    """
    cluster_config = config.cluster
    pool: WorkerPool | None = None
    if cluster_config.worker_mode == "processes":
        specs: list[ShardSpec] = []
        for shard in shards:
            # One dump (and one pickled payload) per shard: the pool runs
            # the same spec object once per replica, so N replicas do not
            # mean N copies of the rows in the parent.
            shard_spec = build_shard_spec(
                shard.database, compiled, config, shard_id=shard.shard_id
            )
            specs.extend([shard_spec] * cluster_config.replicas)
        pool = WorkerPool(
            specs,
            port_base=cluster_config.worker_port_base,
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
            shard.service = ReplicaService(
                replicas,
                policy=cluster_config.replica_policy,
                breaker_threshold=cluster_config.breaker_threshold,
                breaker_reset_s=cluster_config.breaker_reset_s,
            )
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
    shipped to process workers in their ``ShardSpec``.  The caller owns
    the table until a router takes it; ``table.close()`` tears it down.
    """
    config.cluster.validate()
    indexer = ShardedIndexer(source.database, source.compiled, config)
    shards, partitionings = indexer.build_shards(partitionings, tile_sizes=tile_sizes)
    pool = attach_shard_services(shards, config, source.compiled, generation=epoch)
    return ShardTable(
        shards=shards,
        partitionings=partitionings,
        config=config,
        epoch=epoch,
        worker_pool=pool,
    )


def build_cluster(
    source_backend: KyrixBackend,
    *,
    autopilot: bool | None = None,
    telemetry: bool | None = None,
    tile_sizes: tuple[int, ...] = (),
    **cluster: Any,
) -> ShardedCluster:
    """Shard a precomputed backend into a scatter-gather serving cluster.

    ``source_backend`` must have run ``precompute()`` already: its placement
    (or separable source) tables are what gets split across shards.
    ``**cluster`` overrides :class:`~repro.config.ClusterConfig` fields by
    their own names for this build (an unknown name is
    :func:`dataclasses.replace`'s ``TypeError``, raised before anything is
    built); ``autopilot`` / ``telemetry`` override
    ``config.cluster.autopilot.enabled`` / ``config.telemetry.enabled``.
    All of it is folded into **one** effective configuration up front, and
    that is the only configuration anything below sees — the router's
    ``config``, the shard table's, and the
    :class:`~repro.serving.worker.ShardSpec` dumps worker processes stand
    up from.  ``tile_sizes`` pre-builds per-shard tuple–tile mapping tables
    so the mapping design serves its first tile request without a lazy
    build.

    Every cluster carries a ready-to-use
    :class:`~repro.cluster.rebalancer.LoadRebalancer` as
    ``cluster.rebalancer``.  With ``autopilot=True`` (or
    ``cluster.autopilot.enabled``) a
    :class:`~repro.cluster.autopilot.ClusterAutopilot` background control
    loop is attached *and started*: it watches load skew, re-splits the
    shards on its own, and stops automatically
    when the cluster (or the router, via ``build_service`` stacks) closes.
    """
    config = source_backend.config
    if autopilot is not None:
        cluster["autopilot"] = replace(config.cluster.autopilot, enabled=autopilot)
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
    if config.cluster.autopilot.enabled:
        from .autopilot import ClusterAutopilot

        cluster.autopilot = ClusterAutopilot(cluster).start()
    return cluster
