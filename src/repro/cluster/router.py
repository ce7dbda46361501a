"""The cluster router: parallel scatter-gather over shard backends.

A :class:`ClusterRouter` implements the :class:`~repro.serving.base.DataService`
protocol (``handle`` plus ``compiled`` / ``config`` / ``stats`` /
``close``), so frontends and sessions drive a cluster exactly like a single
backend; canvas metadata is the compiled plan's (``compiled.canvas_info``),
never a shard's, so it outlives any shard.  Internally the router is a
composed middleware stack over the scatter-gather core::

    CachingService( CoalescingService( scatter-gather ) )

1. the shared router cache (keyed by the unsharded cache key) answers
   repeats (:class:`~repro.serving.middleware.CachingService`),
2. identical in-flight requests from concurrent sessions coalesce behind
   one scatter-gather (:class:`~repro.serving.middleware.CoalescingService`),
3. the scatter-gather computes the request's canvas rectangle and
   *scatters* the request only to the shards whose regions intersect it
   (``shard_id``-stamped copies), executing the shard queries **in
   parallel** on a thread pool when ``cluster.parallel_shards`` is set, and
4. *gathers* the shard responses in shard-id order, merging objects and
   deduplicating boundary-straddling tuples that were replicated into
   several shards — the gathered object list is byte-identical whether the
   shard queries ran in parallel or sequentially.

With ``cluster.replicas > 1`` each shard call lands on a
:class:`~repro.serving.replica.ReplicaService` that load-balances across
the shard's replicas and fails over on replica faults; each set counts its
own attempts and failures per replica (``router.replica_sets()[shard].stats``),
so outages stay attributable.

Each event is counted once, by the layer it happens in: the router cache
its hits and misses (``router.cache.stats``), the coalescer its leaders and
followers (``router.coalescer.stats``), and :class:`ClusterStats` only what
the scatter-gather itself does.

``DataResponse.query_ms`` of a gathered response is the measured wall time
of the scatter-gather, routing to merge (so never less than the slowest
shard).  ``DataResponse.shard_ms`` keeps the per-shard timings so latency
breakdowns stay attributable.

Call sites do not construct a ``ClusterRouter`` themselves; they use
:func:`repro.serving.build_service` (repolint's ``factory-only`` rule).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from ..compiler.plan import CompiledApplication
from ..config import ClusterConfig, KyrixConfig
from ..errors import FetchError
from ..net.protocol import ABSENT, DataRequest, DataResponse, RowBatch, concat_rows
from ..server.backend import box_rect
from ..server.tile import TileScheme
from ..serving.middleware import CachingService, CoalescingService
from ..serving.replica import ReplicaService
from ..storage.rtree import Rect
from ..telemetry import get_tracer
from .partitioner import LoadHistogram, Partitioning
from .sharded import ShardHandle

if TYPE_CHECKING:
    from ..serving.worker import WorkerPool

#: Per-canvas cap on recorded request-footprint centres (a ring buffer: old
#: samples fall off, so the load-weighted repartitioner sees *recent* traffic).
LOAD_SAMPLES = 4096

#: Seconds :meth:`ClusterRouter.retire_table` waits for a swapped-out
#: generation's in-flight requests before closing it anyway.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class ShardTable:
    """One generation of the cluster: everything that is true of one epoch.

    Built in one piece by :func:`repro.cluster.builder.build_generation`.
    The scatter-gather core reads the router's current table exactly once
    per request and uses it for the whole fan-out, so an online rebalance
    can swap the table atomically while requests already in flight keep
    the generation they started on; the old generation is only closed
    once it drains.  Only ``inflight`` changes after the build, and only
    under the owning router's table lock.
    """

    shards: list[ShardHandle]
    partitionings: dict[str, Partitioning]
    #: The **effective** configuration this generation was built from
    #: (build overrides and a rebalance's new shard / replica counts folded
    #: in): ``config.cluster`` is what is served and what workers received.
    config: KyrixConfig
    epoch: int = 0
    #: The worker-process pool serving this generation's shards, when it
    #: was built with ``worker_mode="processes"``.
    worker_pool: "WorkerPool | None" = None
    #: Scatter-gathers currently executing against this table.
    inflight: int = 0

    def close(self) -> None:
        """Close this generation's shard stacks and worker pool (idempotent;
        the only place a generation is torn down)."""
        for shard in self.shards:
            shard.close()
        if self.worker_pool is not None:
            self.worker_pool.close()


def _require_shards(table: ShardTable) -> None:
    """Refuse a generation with nothing to serve (construction and every swap)."""
    if not table.shards:
        raise FetchError("a cluster needs at least one shard")


@dataclass
class ClusterStats:
    """The scatter-gather's own counters over the router's lifetime.

    What is true of the built topology — its shards, the epoch — lives on
    the current :class:`ShardTable`; cache, coalescer and replica traffic
    is counted by those layers' own stats.
    """

    scatter_gathers: int = 0
    shard_queries: int = 0
    duplicates_removed: int = 0
    objects_returned: int = 0
    per_shard_requests: dict[int, int] = field(default_factory=dict)
    #: How many scatter-gathers touched exactly N shards (fan-out histogram).
    fanout: dict[int, int] = field(default_factory=dict)

    def record_scatter(self, shard_ids: list[int]) -> None:
        self.scatter_gathers += 1
        self.shard_queries += len(shard_ids)
        self.fanout[len(shard_ids)] = self.fanout.get(len(shard_ids), 0) + 1
        for shard_id in shard_ids:
            self.per_shard_requests[shard_id] = (
                self.per_shard_requests.get(shard_id, 0) + 1
            )

    def reset(self) -> None:
        self.scatter_gathers = 0
        self.shard_queries = 0
        self.duplicates_removed = 0
        self.objects_returned = 0
        self.per_shard_requests.clear()
        self.fanout.clear()


def gather_rows(shard_objects: list[Sequence[dict[str, Any]]]) -> RowBatch:
    """Merge the shards' rows, as tuples, into one batch in *canonical* order.

    Rows sort by their dedup identity, so the gathered batch is byte-identical
    between the parallel and sequential paths AND invariant under the
    partitioning itself — an online rebalance can re-split shards without
    changing a response byte (a shard returns rows in index order, which
    depends on what rows it holds; the sort erases that).  A boundary row
    replicated into several shards is kept once, the first shard's copy; the
    rows of a fan-out of one are only sorted.  A row's identity is its
    ``tuple_id``, or without one the row as sorted ``(name, value)`` pairs;
    identities of mixed types (int and str ``tuple_id``) have no natural
    order and ``repr`` gives a deterministic one.  The indexer's tables take
    neither detour: whole-list calls, no statement per row.
    """
    # One layout for the gather (a canned or fault-injected shard answers with
    # a list built by hand), and one set of columns on every shard.
    gathered = concat_rows(shard_objects)
    names, rows, sparse = gathered.names, gathered.rows, gathered.sparse
    by_id = itemgetter(names.index("tuple_id")) if "tuple_id" in names else None
    ids = list(map(by_id, rows)) if by_id else [None]
    identity: Callable[[tuple[Any, ...]], Any] = by_id
    if None in ids or (sparse and ABSENT in ids):
        def identity(row: tuple[Any, ...]) -> Any:
            tuple_id = by_id(row) if by_id else None
            if tuple_id is None or tuple_id is ABSENT:
                return tuple(sorted(pair for pair in zip(names, row) if pair[1] is not ABSENT))
            return tuple_id
    if len(shard_objects) == 1:
        try:
            rows = sorted(rows, key=identity)
        except TypeError:
            rows = sorted(rows, key=lambda row: repr(identity(row)))
    else:
        if identity is not by_id:
            ids = list(map(identity, rows))
        # Filled back to front, so the row an identity ends up with is its first...
        first = dict(zip(reversed(ids), reversed(rows)))
        try:
            keys = sorted(first)
        except TypeError:
            # ...but under its last key object, and ``repr`` tells 1 from True.
            keys = sorted(dict.fromkeys(ids), key=repr)
        rows = list(map(first.__getitem__, keys))
    return RowBatch(names, rows, sparse)


class _ScatterGatherService:
    """The router's terminal :class:`DataService`: one scatter-gather per call."""

    def __init__(self, router: "ClusterRouter") -> None:
        self.router = router

    @property
    def compiled(self) -> CompiledApplication:
        return self.router.compiled

    @property
    def config(self) -> KyrixConfig:
        return self.router.config

    @property
    def stats(self) -> ClusterStats:
        return self.router.stats

    def handle(self, request: DataRequest) -> DataResponse:
        return self.router._scatter_gather(request)

    def close(self) -> None:
        pass


class ClusterRouter:
    """Routes data requests across a set of shard backends."""

    def __init__(self, table: ShardTable, compiled: CompiledApplication) -> None:
        # The shard topology lives in a swappable ShardTable so an online
        # rebalance can replace it atomically (see swap_shards).
        _require_shards(table)
        self._table = table
        self._table_lock = threading.Lock()
        self._table_drained = threading.Condition(self._table_lock)
        self.compiled = compiled
        config = table.config
        # Per-canvas request-footprint histograms feeding the load-driven
        # repartitioner (bounded ring buffers; see LoadRebalancer).
        self._load_lock = threading.Lock()
        self.canvas_loads: dict[str, LoadHistogram] = {
            canvas_id: LoadHistogram(LOAD_SAMPLES)
            for canvas_id in table.partitionings
        }
        # Written under the table lock: concurrent sessions are the router's
        # normal traffic, so the read-modify-write updates must not lose
        # increments, and a swap clears the per-shard ones atomically with
        # installing the generation they describe.
        self.stats = ClusterStats()
        # The middleware stack over the scatter-gather core.  ``self.cache``
        # and ``self.coalescer`` alias the middleware internals so existing
        # callers (tests, benchmarks) keep their handles.
        coalescing_layer = CoalescingService(_ScatterGatherService(self))
        self.coalescer = coalescing_layer.coalescer
        # The cluster's one server-side response cache: the shards below
        # are bare engines, so it is sized like a single backend's.
        self._stack = CachingService(
            coalescing_layer,
            entries=config.cache.backend_entries if config.cache.enabled else 0,
        )
        self.cache = self._stack.cache
        # The scatter executor is created lazily on the first multi-shard
        # fan-out (many routers are built for single requests or ablations).
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._closed = False
        #: Back-reference to the ShardedCluster that built this router
        #: (set by :func:`repro.cluster.builder.build_cluster`).
        self.cluster: Any = None

    @property
    def table(self) -> ShardTable:
        """The current generation.  Readers that need several facts of one
        epoch take this once; the per-field properties below may straddle
        a concurrent swap."""
        return self._table

    @property
    def config(self) -> KyrixConfig:
        """The effective configuration of the generation being served."""
        return self._table.config

    @property
    def cluster_config(self) -> ClusterConfig:
        """``config.cluster`` — exactly what is being served."""
        return self._table.config.cluster

    @property
    def shards(self) -> list[ShardHandle]:
        """The current generation's shard handles (see :class:`ShardTable`)."""
        return self._table.shards

    @property
    def partitionings(self) -> dict[str, Partitioning]:
        """The current generation's per-canvas partitionings."""
        return self._table.partitionings

    @property
    def epoch(self) -> int:
        """The current shard-table generation (0 until the first rebalance)."""
        return self._table.epoch

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def parallel(self) -> bool:
        """Whether multi-shard scatters fan out on the thread pool."""
        table = self._table
        return table.config.cluster.parallel_shards and len(table.shards) > 1

    @property
    def children(self) -> tuple[Any, ...]:
        """The per-shard serving stacks, traversed by :func:`~repro.serving.base.unwrap`.

        Makes ``unwrap(router, ReplicaService)`` (or any layer inside a
        shard's stack) reachable from the cluster's outermost service.
        """
        return tuple(shard.service for shard in self.shards)

    def replica_sets(self) -> dict[int, ReplicaService]:
        """The shards' :class:`~repro.serving.replica.ReplicaService` layers."""
        return {
            shard.shard_id: shard.service
            for shard in self.shards
            if isinstance(shard.service, ReplicaService)
        }

    # -- request handling --------------------------------------------------------------

    def handle(self, request: DataRequest) -> DataResponse:
        """Answer one data request via cache, coalescing or scatter-gather."""
        with get_tracer().span(
            "request",
            canvas=request.canvas_id,
            granularity=request.granularity,
            design=request.design,
        ) as span:
            self._resolve_layer(request)
            response = self._stack.handle(request)
            span.set_attribute("from_cache", response.from_cache)
            span.set_attribute("coalesced", response.coalesced)
            return response

    def close(self) -> None:
        """Shut down the scatter executor, shard stacks and worker processes."""
        # Stop the autopilot first: its control loop calls back into the
        # router (rebalances, replica swaps), so it must be parked before
        # the serving structures it steers are torn down.
        autopilot = getattr(self.cluster, "autopilot", None)
        if autopilot is not None:
            autopilot.close()
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)
        # Serialise with swap_shards: reading the table under the table
        # lock guarantees we close whichever generation a concurrent
        # rebalance installed (or that the rebalance failed its closed
        # check before installing anything).
        with self._table_lock:
            table = self._table
        table.close()

    # -- online rebalancing seam -------------------------------------------------------

    def swap_shards(self, table: ShardTable) -> ShardTable:
        """Atomically replace the shard table with a new generation.

        Requests that already picked up the old table finish against it
        (the caller retires it with :meth:`retire_table` once it drains);
        every request arriving after this call scatters over the new
        shards.  Returns the retired :class:`ShardTable`; when the swap is
        refused (closed router) the new ``table`` is still the caller's to
        close.

        Traffic counters keyed by shard id (``per_shard_requests`` /
        ``fanout``) are cleared: shard ids name *regions*, and the new
        generation's regions are different objects — mixing the two would
        make the post-rebalance skew unreadable.  (Replica counters need no
        clearing: every generation builds its own replica sets.)  The
        per-canvas load histograms reset for the same reason: the next
        split must be driven by traffic on the new boundaries, not by the
        hotspot this swap just resolved.
        """
        _require_shards(table)
        with self._table_lock:
            # Refuse to install shards on a closed router: close() captures
            # the current table under this same lock, so checking here
            # guarantees either close() sees the new table (and closes it)
            # or this swap fails before installing anything — a rebalance
            # racing a shutdown must not strand a worker-pool generation.
            with self._executor_lock:
                if self._closed:
                    raise FetchError("cannot swap shards on a closed router")
                # The executor was sized for the old shard count; drop it
                # so the next fan-out rebuilds one for the new topology.
                executor, self._executor = self._executor, None
            old = self._table
            self._table = table
            # Clear per-shard traffic inside the table lock: no request can
            # pick up the new table until the lock drops, so the new epoch's
            # counters start exactly empty, and old-generation stragglers
            # skip recording via the stale-table guard in
            # _scatter_gather_traced.
            self.stats.per_shard_requests.clear()
            self.stats.fanout.clear()
            # The load histograms drove the split that produced this
            # generation; the *next* boundary decision must be shaped by
            # traffic the new boundaries actually see, not by hotspots
            # this swap already resolved — a stale histogram would pin
            # every future split onto the old hot region.
            with self._load_lock:
                for canvas_id, load in self.canvas_loads.items():
                    self.canvas_loads[canvas_id] = LoadHistogram(load.limit)
        if executor is not None:
            # Old-generation scatters may still hold futures; wait=False
            # lets them finish on the dying executor while new requests
            # get a fresh one (a submit that loses this race falls back to
            # the sequential path — see _scatter_gather_on).
            executor.shutdown(wait=False)
        return old

    def retire_table(self, table: ShardTable) -> bool:
        """Wait for a swapped-out table's in-flight requests, then close it.

        Returns ``True`` when the table drained within
        :data:`DRAIN_TIMEOUT_S`; on timeout the table is closed anyway —
        serving a request on a closing stack is the lesser evil next to
        leaking worker processes.
        """
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        with self._table_lock:
            while table.inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                # wait() releases the lock while blocking, so decrements
                # in _scatter_gather can proceed.
                self._table_drained.wait(remaining)
            drained = table.inflight == 0
        table.close()
        return drained

    def load_snapshot(self) -> dict[str, LoadHistogram]:
        """A copy of the per-canvas request-load histograms (for rebalancing)."""
        with self._load_lock:
            return {
                canvas_id: load.copy()
                for canvas_id, load in self.canvas_loads.items()
            }

    # -- scatter-gather ----------------------------------------------------------------

    def _shard_executor(self) -> ThreadPoolExecutor | None:
        if not self.parallel:
            return None
        with self._executor_lock:
            if self._executor is None and not self._closed:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.shard_count,
                    thread_name_prefix="kyrix-shard",
                )
            return self._executor

    def _query_shard(
        self,
        table: ShardTable,
        shard_id: int,
        request: DataRequest,
        trace_context: dict[str, Any] | None = None,
    ) -> DataResponse:
        # ``attach`` joins this (possibly pool) thread to the caller's
        # trace so shard spans nest under the scatter span regardless of
        # which thread runs them; a no-op when the context is None.
        tracer = get_tracer()
        with tracer.attach(trace_context):
            with tracer.span("shard", shard_id=shard_id):
                return table.shards[shard_id].handle(request.for_shard(shard_id))

    def _scatter_gather(self, request: DataRequest) -> DataResponse:
        # One table read per request: the whole fan-out (shard-id
        # resolution AND shard calls) uses the same generation, so an
        # online swap between the two steps cannot mis-route.
        with self._table_lock:
            table = self._table
            table.inflight += 1
        try:
            return self._scatter_gather_on(table, request)
        finally:
            with self._table_lock:
                table.inflight -= 1
                if table.inflight == 0:
                    self._table_drained.notify_all()

    def _scatter_gather_on(
        self, table: ShardTable, request: DataRequest
    ) -> DataResponse:
        with get_tracer().span("scatter", epoch=table.epoch) as scatter_span:
            return self._scatter_gather_traced(table, request, scatter_span)

    def _scatter_gather_traced(
        self, table: ShardTable, request: DataRequest, scatter_span: Any
    ) -> DataResponse:
        start = time.perf_counter()
        rect = self.request_rect(request)
        partitioning = table.partitionings[request.canvas_id]
        shard_ids = partitioning.shards_for_rect(rect)
        scatter_span.set_attribute("fanout", len(shard_ids))
        with self._table_lock:
            # Shard ids name *regions* of one epoch: a straggler still
            # finishing against a swapped-out table must not count its old
            # region ids against the new epoch's cleared counters.
            if table is self._table:
                self.stats.record_scatter(shard_ids)
        center_x, center_y = rect.center
        with self._load_lock:
            load = self.canvas_loads.get(request.canvas_id)
            if load is None:
                load = LoadHistogram(LOAD_SAMPLES)
                self.canvas_loads[request.canvas_id] = load
            load.observe(center_x, center_y)

        executor = self._shard_executor() if len(shard_ids) > 1 else None
        # Captured once on the scattering thread so every fan-out thread
        # parents its shard span under this request's scatter span.
        trace_context = get_tracer().current_context()
        shard_responses: list[DataResponse] | None = None
        if executor is not None:
            try:
                futures = [
                    executor.submit(
                        self._query_shard, table, shard_id, request, trace_context
                    )
                    for shard_id in shard_ids
                ]
            except RuntimeError:
                # A concurrent swap shut this executor down between our
                # fetch and the submit; any futures that did get in still
                # run (idempotent reads) but are discarded — this request
                # simply degrades to the sequential path below.
                shard_responses = None
            else:
                shard_responses = [future.result() for future in futures]
        if shard_responses is None:
            shard_responses = [
                self._query_shard(table, shard_id, request, trace_context)
                for shard_id in shard_ids
            ]

        shard_ms: dict[str, float] = {}
        queries = 0
        for shard_id, shard_response in zip(shard_ids, shard_responses):
            shard_ms[f"shard{shard_id}"] = shard_response.query_ms
            queries += shard_response.queries_issued
        received = sum(len(shard_response.objects) for shard_response in shard_responses)
        objects = gather_rows([shard_response.objects for shard_response in shard_responses])

        response = DataResponse(
            request=request,
            objects=objects,
            # Measured here, routing to merge: never less than the slowest
            # shard, whose own stopwatch ran inside this one.
            query_ms=(time.perf_counter() - start) * 1000.0,
            from_cache=False,
            queries_issued=queries,
            shard_ms=shard_ms,
        )
        with self._table_lock:
            self.stats.duplicates_removed += received - len(objects)
            self.stats.objects_returned += len(objects)
        return response

    def request_rect(self, request: DataRequest) -> Rect:
        """The canvas rectangle a request covers (scatter footprint)."""
        canvas_plan = self.compiled.canvas_plan(request.canvas_id)
        if request.granularity == "tile":
            if request.tile_id is None or not request.tile_size:
                raise FetchError("tile requests need tile_id and tile_size")
            scheme = TileScheme(
                canvas_plan.width, canvas_plan.height, request.tile_size
            )
            return scheme.tile_rect(request.tile_id)
        if request.granularity == "box":
            return box_rect(request)
        raise FetchError(f"unknown granularity {request.granularity!r}")

    def describe(self) -> dict[str, Any]:
        """Cluster topology: shard row counts and per-canvas regions."""
        table = self._table  # one read: every field from one epoch
        cluster_config = table.config.cluster
        return {
            "shard_count": len(table.shards),
            "rebalance_epoch": table.epoch,
            "parallel": self.parallel,
            "wire_shards": cluster_config.wire_shards,
            "replicas": cluster_config.replicas,
            "replica_policy": cluster_config.replica_policy,
            "worker_mode": cluster_config.worker_mode,
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "rows_by_table": dict(shard.rows_by_table),
                }
                for shard in table.shards
            ],
            "partitionings": {
                canvas_id: partitioning.describe()
                for canvas_id, partitioning in table.partitionings.items()
            },
        }

    # -- helpers -----------------------------------------------------------------------

    def _resolve_layer(self, request: DataRequest) -> None:
        self.compiled.require_layer_plan(request.canvas_id, request.layer_index)
