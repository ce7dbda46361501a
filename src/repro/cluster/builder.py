"""One-call assembly of a sharded serving cluster from a single backend.

:func:`build_cluster` shards a precomputed backend, attaches a serving
stack to every shard (:func:`attach_shard_services`) and puts a
:class:`~repro.cluster.router.ClusterRouter` in front.  The router owns the
cluster's one response cache (and its coalescer); every shard replica below
it is a bare engine behind a lock —
``[TransportService | LocalTransport] ∘ SerializedService ∘ KyrixBackend``,
built by :func:`~repro.serving.worker.replica_stack` whether it runs in
this process or in a worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..config import ClusterConfig, KyrixConfig
from ..server.backend import KyrixBackend
from ..telemetry import configure as configure_telemetry
from ..serving.base import DataService
from ..serving.replica import ReplicaService
from ..serving.transport import RemoteBackendStub
from ..serving.worker import (
    ShardSpec,
    WorkerPool,
    build_shard_spec,
    database_checksum,
    replica_stack,
)
from .partitioner import Partitioning
from .router import ClusterRouter, replica_key
from .sharded import ShardedIndexer, ShardHandle

if TYPE_CHECKING:
    from .autopilot import ClusterAutopilot
    from .rebalancer import LoadRebalancer


@dataclass
class ShardedCluster:
    """A built cluster: the router plus everything behind it."""

    router: ClusterRouter
    shards: list[ShardHandle]
    partitionings: dict[str, Partitioning]
    #: The worker-process pool serving the shards, when the cluster was
    #: built with ``worker_mode="processes"``; ``None`` for in-process
    #: (thread) topologies.
    worker_pool: WorkerPool | None = None
    #: The source backend the shards were split from.  An online rebalance
    #: re-shards it under a new partitioning, so the cluster keeps the
    #: reference for its whole lifetime (the caller owns the backend; this
    #: is not an extra copy of the data).
    source: KyrixBackend | None = None
    #: Tile sizes whose tuple–tile mapping tables were prebuilt per shard
    #: (a rebalance prebuilds the same ones on the new shard set).
    tile_sizes: tuple[int, ...] = ()
    #: The attached load rebalancer, when ``cluster.rebalance_enabled``
    #: (or the ``rebalance=`` build override) asked for one.
    rebalancer: "LoadRebalancer | None" = field(default=None, repr=False)
    #: The running control loop, when ``cluster.autopilot.enabled`` (or
    #: the ``autopilot=`` build override) asked for one.
    autopilot: "ClusterAutopilot | None" = field(default=None, repr=False)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def describe(self) -> dict[str, Any]:
        description = self.router.describe()
        if self.worker_pool is not None:
            description["workers"] = self.worker_pool.describe()
        return description

    def close(self) -> None:
        # router.close() parks the autopilot before tearing anything down
        # (so a mid-flight control pass cannot race the teardown) and then
        # drains the worker pool; the explicit calls here keep close()
        # correct for callers holding a cluster whose router was already
        # closed independently.
        self.router.close()
        if self.autopilot is not None:
            self.autopilot.close()
        if self.worker_pool is not None:
            self.worker_pool.close()


def attach_shard_services(
    shards: list[ShardHandle],
    cluster_config: ClusterConfig,
    config: KyrixConfig,
    compiled: Any,
    *,
    generation: int = 0,
) -> WorkerPool | None:
    """Attach the configured serving stack to every shard handle.

    The one topology dispatch both :func:`build_cluster` and
    :class:`~repro.cluster.rebalancer.LoadRebalancer` go through.  Every
    replica of every shard is the same chain —
    :func:`~repro.serving.worker.replica_stack`, a lock over a bare engine,
    behind the wire — and only where it runs differs:

    * ``threads``: in this process, over the shard's shared immutable index
      and its one lock (the embedded engine is not thread-safe), crossing
      an in-process wire when ``cluster.wire_shards`` is set;
    * ``processes``: in one forked worker per replica (the returned
      :class:`~repro.serving.worker.WorkerPool`), each rebuilding its **own
      copy** of the index from one pickled
      :class:`~repro.serving.worker.ShardSpec` per shard — which is what
      makes the per-replica divergence checksums in
      :class:`~repro.cluster.router.ClusterStats` meaningful — reached
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
            spawn_timeout_s=cluster_config.worker_spawn_timeout_s,
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
                retry_limit=cluster_config.replica_retry_limit,
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


def collect_replica_checksums(
    shards: list[ShardHandle],
    cluster_config: ClusterConfig,
    pool: WorkerPool | None,
) -> dict[str, str]:
    """Per-replica index checksums of a freshly assembled shard set.

    Workers report the hash of their own rebuilt copy; in-process *replica
    sets* share the shard's index, so its hash is recorded once per
    replica.  Either way the same content hashes to the same value, so
    divergence detection is topology-blind.  Single-replica thread
    clusters (the common fast path) skip the hash entirely — with one
    in-process copy per shard there is nothing to diverge from, and
    hashing every row would tax every build.
    """
    checksums: dict[str, str] = {}
    if pool is not None:
        for handle in pool.handles:
            checksums[replica_key(handle.shard_id, handle.replica_index)] = (
                handle.checksum
            )
    elif cluster_config.replicas > 1:
        for shard in shards:
            checksum = database_checksum(shard.database)
            for replica_index in range(cluster_config.replicas):
                checksums[replica_key(shard.shard_id, replica_index)] = checksum
    return checksums


def build_cluster(
    source_backend: KyrixBackend,
    *,
    shard_count: int | None = None,
    strategy: str | None = None,
    coalescing: bool | None = None,
    parallel: bool | None = None,
    wire_shards: bool | None = None,
    replicas: int | None = None,
    replica_policy: str | None = None,
    worker_mode: str | None = None,
    rebalance: bool | None = None,
    autopilot: bool | None = None,
    telemetry: bool | None = None,
    tile_sizes: tuple[int, ...] = (),
) -> ShardedCluster:
    """Shard a precomputed backend into a scatter-gather serving cluster.

    ``source_backend`` must have run ``precompute()`` already: its placement
    (or separable source) tables are what gets split across shards.  The
    keyword arguments override the corresponding ``config.cluster`` fields
    for this build only; ``tile_sizes`` pre-builds per-shard tuple–tile
    mapping tables so the mapping design serves its first tile request
    without a lazy build.  With ``worker_mode="processes"`` every shard
    replica runs in its own forked worker process behind a socket transport
    (see :mod:`repro.serving.worker`).  With ``rebalance=True`` (or
    ``cluster.rebalance_enabled``) the cluster carries a ready-to-use
    :class:`~repro.cluster.rebalancer.LoadRebalancer` as
    ``cluster.rebalancer``.  With ``autopilot=True`` (or
    ``cluster.autopilot.enabled``) a
    :class:`~repro.cluster.autopilot.ClusterAutopilot` background control
    loop is attached *and started*: it snapshots load, rebalances,
    autoscales shard/replica counts and read-repairs diverged replicas on
    its own, and stops automatically when the cluster (or the router, via
    ``build_service`` stacks) closes.

    ``telemetry`` overrides ``config.telemetry.enabled`` for this build:
    the effective configuration (with the flag folded in) is what the
    :class:`~repro.serving.worker.ShardSpec` dumps carry, so worker
    processes stand up the same tracing plane as the router side.
    """
    config = source_backend.config
    if telemetry is not None and telemetry != config.telemetry.enabled:
        config = replace(
            config, telemetry=replace(config.telemetry, enabled=telemetry)
        )
    if telemetry is not None or config.telemetry.enabled:
        configure_telemetry(config.telemetry)
    cluster_config = config.cluster
    overrides = {
        name: value
        for name, value in (
            ("shard_count", shard_count),
            ("strategy", strategy),
            ("parallel_shards", parallel),
            ("wire_shards", wire_shards),
            ("replicas", replicas),
            ("replica_policy", replica_policy),
            ("worker_mode", worker_mode),
            ("rebalance_enabled", rebalance),
        )
        if value is not None
    }
    if autopilot is not None and autopilot != cluster_config.autopilot.enabled:
        overrides["autopilot"] = replace(
            cluster_config.autopilot, enabled=autopilot
        )
    if overrides:
        cluster_config = replace(cluster_config, **overrides)
        cluster_config.validate()
    indexer = ShardedIndexer(
        source_backend.database,
        source_backend.compiled,
        config,
        cluster_config=cluster_config,
    )
    shards, partitionings = indexer.build_shards(tile_sizes=tile_sizes)
    pool = attach_shard_services(
        shards, cluster_config, config, source_backend.compiled
    )
    router = ClusterRouter(
        shards,
        partitionings,
        source_backend.compiled,
        config,
        cluster_config=cluster_config,
        coalescing=coalescing,
    )
    router.stats.replica_checksums.update(
        collect_replica_checksums(shards, cluster_config, pool)
    )
    # The generation-0 table owns the pool it serves from, so retiring it
    # after a rebalance closes these workers (not the new generation's).
    router._table.worker_pool = pool
    cluster = ShardedCluster(
        router=router,
        shards=shards,
        partitionings=partitionings,
        worker_pool=pool,
        source=source_backend,
        tile_sizes=tuple(tile_sizes),
    )
    # The router carries its cluster handle so callers that only hold the
    # service stack (e.g. `serving.build_service` output) can reach shard
    # bookkeeping without rebuilding a second ShardedCluster.
    router.cluster = cluster
    if cluster_config.rebalance_enabled or cluster_config.autopilot.enabled:
        # Local import: the rebalancer composes builder pieces, so a
        # top-level import would be circular.  The autopilot steers the
        # cluster *through* the rebalancer, so enabling it implies one.
        from .rebalancer import LoadRebalancer

        cluster.rebalancer = LoadRebalancer(cluster)
    if cluster_config.autopilot.enabled:
        from .autopilot import ClusterAutopilot

        cluster.autopilot = ClusterAutopilot(cluster).start()
    return cluster
