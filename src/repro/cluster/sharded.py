"""Sharded precompute: route placement rows to per-shard backends.

The :class:`ShardedIndexer` takes a *source* backend whose placement tables
have already been precomputed by :class:`repro.server.indexer.Indexer`,
partitions each canvas with the configured strategy, and materialises one
embedded :class:`~repro.storage.database.Database` (plus a
:class:`~repro.server.backend.KyrixBackend`) per shard.  Each shard receives
exactly the rows whose bbox intersects its region — an object straddling a
shard boundary is stored in *every* shard it overlaps, so any shard whose
region intersects a query rectangle can answer for it; the router
deduplicates at gather time.  Indexes (B-tree on ``tuple_id``, R-tree on
``bbox``, and the tuple–tile mapping tables of the first database design)
are rebuilt per shard over the shard's own rows, and a shard's copy of a
table is clustered on the index the source is clustered on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..compiler.plan import CompiledApplication
from ..config import KyrixConfig
from ..errors import KyrixError
from ..server.backend import KyrixBackend
from ..storage.database import Database
from ..storage.rtree import Rect
from ..storage.statistics import SpatialDistribution, sample_spatial_distribution
from .partitioner import Partitioning, make_partitioner

if TYPE_CHECKING:
    from ..serving.base import DataService


@dataclass
class ShardHandle:
    """One shard of the cluster: its database, backend and serving stack.

    ``service`` is the shard's composed :class:`~repro.serving.base.DataService`:
    one :func:`~repro.serving.worker.replica_stack` — a lock over the bare
    engine, optionally behind the wire — or a replica set of them.  The
    indexer hands handles out without one;
    :func:`repro.cluster.builder.build_generation` attaches it before the
    handle is ever served from, and every call goes through it.

    With ``worker_mode="processes"`` the embedded database only exists to
    seed the worker's :class:`~repro.serving.worker.ShardSpec` dump; once
    the workers are up the parent calls :meth:`detach_database` so it does
    not hold every shard's rows a second time for the cluster's whole
    serving lifetime (``rows_by_table`` keeps the counts).
    """

    shard_id: int
    database: Database | None
    backend: KyrixBackend | None
    #: Rows loaded into this shard, per table (includes boundary replicas).
    rows_by_table: dict[str, int] = field(default_factory=dict)
    #: Serialises queries against this shard's embedded engine so concurrent
    #: sessions can share the cluster (the stand-in for one worker process).
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: The shard's serving stack: a plain attribute, read on every call
    #: (benchmarks slip a recording proxy in here).
    service: "DataService" = field(init=False, repr=False)

    @property
    def total_rows(self) -> int:
        return sum(self.rows_by_table.values())

    def detach_database(self) -> None:
        """Drop the parent-side database/backend (the rows live in the
        worker processes ``service`` reaches)."""
        self.backend = None
        self.database = None

    def handle(self, request):
        return self.service.handle(request)

    def close(self) -> None:
        self.service.close()


class ShardedIndexer:
    """Builds the per-shard databases and backends from a source backend."""

    def __init__(
        self,
        source_database: Database,
        compiled: CompiledApplication,
        config: KyrixConfig,
    ) -> None:
        self.source_database = source_database
        self.compiled = compiled
        #: The generation's effective configuration; ``config.cluster``
        #: (shard count, strategy, KD sampling) drives the split.
        self.config = config

    # -- partitioning -----------------------------------------------------------------

    def partition_canvases(self) -> dict[str, Partitioning]:
        """Partition every canvas with the configured strategy."""
        partitioner = make_partitioner(
            self.config.cluster.strategy, self.config.cluster.shard_count
        )
        partitionings: dict[str, Partitioning] = {}
        for canvas_id, canvas_plan in self.compiled.canvases.items():
            distribution = None
            if self.config.cluster.strategy == "kd":
                distribution = self._canvas_distribution(canvas_id)
            partitionings[canvas_id] = partitioner.partition(
                canvas_id, canvas_plan.width, canvas_plan.height, distribution
            )
        return partitionings

    def _canvas_distribution(self, canvas_id: str) -> SpatialDistribution:
        """Sampled bbox-centre distribution over a canvas's dynamic layers."""
        distribution = SpatialDistribution()
        for layer_plan in self.compiled.canvas_plan(canvas_id).dynamic_layers():
            table_name = layer_plan.placement_table or layer_plan.source_table
            if table_name is None or not self.source_database.has_table(table_name):
                continue
            table = self.source_database.table(table_name)
            if not table.schema.has_column("bbox"):
                continue
            distribution.extend(
                sample_spatial_distribution(
                    table.scan_rows(),
                    table.schema.column_index("bbox"),
                    row_count_hint=table.row_count,
                )
            )
        return distribution

    # -- shard building ---------------------------------------------------------------

    def build_shards(
        self,
        partitionings: dict[str, Partitioning] | None = None,
        *,
        tile_sizes: tuple[int, ...] = (),
    ) -> tuple[list[ShardHandle], dict[str, Partitioning]]:
        """Materialise every shard database/backend.

        Returns the shard handles — not yet serving: the caller attaches
        each one's ``service`` — and the partitionings they were built
        from.  ``tile_sizes`` pre-builds the tuple–tile mapping tables per
        shard (the mapping design otherwise builds them lazily on the first
        tile request, polluting measured latencies).
        """
        partitionings = partitionings or self.partition_canvases()
        shard_count = self.config.cluster.shard_count
        databases = [Database(self.config.storage) for _ in range(shard_count)]

        # A table may feed layers on several canvases; route each of its rows
        # through every referencing canvas's partitioning.
        table_partitionings: dict[str, list[Partitioning]] = {}
        for layer_plan in self.compiled.all_layer_plans():
            if layer_plan.static:
                continue
            table_name = layer_plan.placement_table or layer_plan.source_table
            if table_name is None:
                raise KyrixError(
                    f"layer {layer_plan.layer_name!r} has no queryable table; "
                    "run the source backend's precompute() before sharding"
                )
            referencing = table_partitionings.setdefault(table_name, [])
            partitioning = partitionings[layer_plan.canvas_id]
            if partitioning not in referencing:
                referencing.append(partitioning)

        rows_by_table: list[dict[str, int]] = [dict() for _ in range(shard_count)]
        for table_name, referencing in table_partitionings.items():
            per_shard = self._route_table(table_name, referencing, shard_count)
            source = self.source_database.table(table_name)
            for shard_id, rows in enumerate(per_shard):
                shard_table = databases[shard_id].create_table(
                    table_name, source.schema
                )
                shard_table.bulk_load(rows)
                for info in source.indexes.values():
                    shard_table.create_index(
                        info.name, info.column, info.kind, unique=info.unique
                    )
                if source.clustered_on is not None:
                    # The source's clustering, on the shard's own index.
                    shard_table.cluster(source.clustered_on)
                rows_by_table[shard_id][table_name] = len(rows)

        shards: list[ShardHandle] = []
        for shard_id in range(shard_count):
            backend = KyrixBackend(databases[shard_id], self.compiled, self.config)
            shards.append(
                ShardHandle(
                    shard_id=shard_id,
                    database=databases[shard_id],
                    backend=backend,
                    rows_by_table=rows_by_table[shard_id],
                )
            )

        for tile_size in tile_sizes:
            for shard in shards:
                shard.backend.ensure_mapping_tables(tile_size)
        return shards, partitionings

    def _route_table(
        self,
        table_name: str,
        referencing: list[Partitioning],
        shard_count: int,
    ) -> list[list[tuple]]:
        """Split one source table into per-shard row lists by bbox overlap."""
        source = self.source_database.table(table_name)
        per_shard: list[list[tuple]] = [[] for _ in range(shard_count)]
        if not source.schema.has_column("bbox"):
            # No spatial column to route by: replicate everywhere (correct,
            # just not partitioned — e.g. pure lookup side tables).
            for row in source.scan_rows():
                for rows in per_shard:
                    rows.append(row)
            return per_shard
        bbox_position = source.schema.column_index("bbox")
        for row in source.scan_rows():
            bbox = row[bbox_position]
            if bbox is None:
                continue
            rect = Rect.from_tuple(bbox)
            targets: set[int] = set()
            for partitioning in referencing:
                targets.update(partitioning.shards_for_rect(rect))
            for shard_id in targets:
                per_shard[shard_id].append(row)
        return per_shard
