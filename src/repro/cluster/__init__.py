"""Sharded multi-backend serving cluster with scatter-gather queries.

The paper's architecture serves every viewport request from one backend over
one database.  This package scales that architecture out while keeping the
tile/dbox request semantics byte-for-byte identical: a single-backend stack
and a cluster return exactly the same tuple sets for the same requests (the
parity tests in ``tests/cluster/`` assert this on both database designs).

**Partitioning** (:mod:`~repro.cluster.partitioner`).  Each canvas is split
into ``shard_count`` axis-aligned regions by one of two strategies: ``grid``
tiles the canvas uniformly, while ``kd`` performs balanced median splits
driven by the sampled object-density distribution
(:class:`repro.storage.statistics.SpatialDistribution`) so skewed datasets
spread evenly across shards.  Regions cover the canvas exactly and share
edges.

**Sharded precompute** (:mod:`~repro.cluster.sharded`).  After the normal
single-node precompute, :class:`~repro.cluster.sharded.ShardedIndexer`
routes every placement (or separable raw) row to each shard whose region its
bbox intersects — boundary-straddling objects are deliberately *replicated*
into all overlapping shards — and rebuilds the B-tree/R-tree indexes and
tuple–tile mapping tables per shard, giving each shard a self-contained
:class:`~repro.server.backend.KyrixBackend`.

**Scatter-gather serving** (:mod:`~repro.cluster.router`).  A
:class:`~repro.cluster.router.ClusterRouter` answers requests by fanning a
tile/box query out to only the shards overlapping its canvas rectangle —
in parallel on a thread pool when ``cluster.parallel_shards`` is set — then
merges the shard responses in shard-id order and deduplicates replicated
boundary tuples by ``tuple_id`` (the gathered object list is byte-identical
between the parallel and sequential paths).  The gathered ``query_ms`` is
the measured wall time of the scatter-gather; each shard call's time is
its traced ``shard`` span.  Identical in-flight requests from concurrent sessions are
coalesced behind one scatter-gather (via
:class:`~repro.serving.middleware.CoalescingService` /
:mod:`~repro.cluster.coalescer`), and a shared router LRU cache
(:class:`~repro.serving.middleware.CachingService`) sits in front of
everything.  Each layer counts its own events (``router.cache.stats``,
``router.coalescer.stats``, each replica set's ``stats``);
:class:`~repro.cluster.router.ClusterStats` counts only the
scatter-gather's.  With ``cluster.wire_shards`` (the default), every shard call
crosses the :mod:`repro.net.columnar` binary wire format through a
:class:`~repro.serving.transport.TransportService`, so shard conversations
are exactly what a multi-node deployment would put on the network.

**Adaptive repartitioning** (:mod:`~repro.cluster.rebalancer`).  The router
records every request's canvas footprint into per-canvas
:class:`~repro.cluster.partitioner.LoadHistogram` ring buffers; when an
operator calls :meth:`~repro.cluster.rebalancer.LoadRebalancer.rebalance`
(after reading its ``skew()``, ``max/mean`` per-shard load), the
rebalancer turns that load into a new
:class:`~repro.cluster.partitioner.LoadWeightedKDPartitioner`
partitioning and migrates to it **online** — the new shard set builds
beside the serving one, the router's shard table swaps atomically, and the
old generation drains before closing, with byte-identical responses
throughout.  Every built cluster carries one (``cluster.rebalancer``).

**One generation, one owner** (:mod:`~repro.cluster.builder`).  A
:class:`~repro.cluster.router.ShardTable` holds everything true of one
epoch — shards, partitionings, worker pool, epoch, the
*effective* configuration — and is built by one function,
:func:`~repro.cluster.builder.build_generation`, for epoch 0 and every
rebalance after.  The router's ``config`` and the ``ShardedCluster`` handle
both read the router's current table; ``table.close()`` is the only
teardown.  Nothing migrates on its own: a migration is an operator's
``rebalance(shard_count)`` or a rebuild.

The router implements the :class:`~repro.serving.base.DataService`
protocol, so ``KyrixFrontend`` / ``ExplorationSession`` drive a cluster
exactly like a single backend; build the whole stack with
:func:`repro.serving.build_service` rather than wiring routers by hand.
Configuration lives in ``KyrixConfig.cluster`` (shard count, strategy,
replicas, worker mode, parallel/wire flags; a replica set always picks
round-robin among the replicas whose breakers admit traffic) and any field can be overridden
per build by name (``build_cluster(backend, shard_count=2, replicas=2)``);
what nobody varies — load-histogram size, drain timeout — is
a module constant beside its reader.  The ``cluster_cold`` / ``cluster_hot``
workloads of ``benchmarks/suite/`` measure per-step latency and
throughput of the default 4-shard cluster under concurrent pan sessions.
"""

from .builder import ShardedCluster, build_cluster
from .coalescer import CoalescerStats, RequestCoalescer
from .partitioner import (
    BalancedKDPartitioner,
    GridPartitioner,
    LoadHistogram,
    LoadWeightedKDPartitioner,
    Partitioning,
    ShardRegion,
    make_partitioner,
)
from .rebalancer import LoadRebalancer, RebalanceReport
from .router import ClusterRouter, ClusterStats, ShardTable
from .sharded import ShardedIndexer, ShardHandle

__all__ = [
    "BalancedKDPartitioner",
    "ClusterRouter",
    "ClusterStats",
    "CoalescerStats",
    "GridPartitioner",
    "LoadHistogram",
    "LoadRebalancer",
    "LoadWeightedKDPartitioner",
    "Partitioning",
    "RebalanceReport",
    "RequestCoalescer",
    "ShardHandle",
    "ShardRegion",
    "ShardTable",
    "ShardedCluster",
    "ShardedIndexer",
    "build_cluster",
    "make_partitioner",
]
