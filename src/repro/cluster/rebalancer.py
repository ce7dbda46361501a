"""Load-driven repartitioning with online shard migration.

The precompute-time partitioners place shard boundaries from *data*
density, fixed for the cluster's lifetime.  Real exploration traffic is
not data-shaped: a session panning over one city hammers the shard that
owns it while the rest idle.  This module closes the loop:

1. **Observe** — the router records every scatter-gather's canvas
   footprint into per-canvas :class:`~repro.cluster.partitioner.LoadHistogram`
   ring buffers, and counts per-shard traffic in
   ``ClusterStats.per_shard_requests``.
2. **Decide** — :func:`load_skew` reduces the per-shard counts
   to one number, ``max / mean`` (1.0 is perfect balance); traffic is
   *skewed* once it crosses :data:`SKEW_THRESHOLD` with at least
   :data:`MIN_REQUESTS` scatters observed.
3. **Repartition** — a
   :class:`~repro.cluster.partitioner.LoadWeightedKDPartitioner` derives a
   new :class:`~repro.cluster.partitioner.Partitioning` per canvas from
   the recorded load, so hot regions split across many shards and cold
   ones merge.
4. **Migrate online** — the next generation is built *beside* the serving
   one by the same function that built the first,
   :func:`~repro.cluster.builder.build_generation` (thread mode: fresh
   index stacks; process mode: fresh
   :class:`~repro.serving.worker.ShardSpec` dumps and a new
   :class:`~repro.serving.worker.WorkerPool` generation), from the current
   generation's configuration with the new shard count ``replace``d in.
   Then the router's shard table is swapped atomically
   (:meth:`~repro.cluster.router.ClusterRouter.swap_shards`) and the old
   generation is retired once its in-flight requests drain
   (:meth:`~repro.cluster.router.ClusterRouter.retire_table`).  The
   :class:`~repro.cluster.router.ShardTable` is the only record of a
   generation: nothing is re-pointed after the swap.

Every shard set is rebuilt from the *same* source backend, so responses
are byte-identical before, during and after a swap — the parity suite
(``tests/cluster/test_rebalance_parity.py``) asserts exactly that across
topologies while a migration is racing the request stream.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any

from ..errors import KyrixError
from .builder import ShardedCluster, build_generation
from .partitioner import LoadHistogram, LoadWeightedKDPartitioner, Partitioning

#: Skew trigger: max per-shard request count ÷ mean (``1.0`` is perfect
#: balance; ``2.0`` means one shard carries at least twice the average).
SKEW_THRESHOLD = 2.0
#: Scatter-gathers that must have been observed before skew is trusted (a
#: handful of requests can look arbitrarily skewed without meaning anything).
MIN_REQUESTS = 64


def load_skew(loads: dict[int, int]) -> float:
    """``max / mean`` of per-shard request counts (1.0 is perfect balance,
    and also the answer when there was no traffic)."""
    total = sum(loads.values())
    if not loads or total <= 0:
        return 1.0
    return max(loads.values()) / (total / len(loads))


@dataclass
class RebalanceReport:
    """What one :meth:`LoadRebalancer.rebalance` call did (or skipped)."""

    #: Whether the router's shard table was actually swapped.
    swapped: bool
    #: ``"rebalanced"`` when it was; ``"single_shard"`` when a one-shard
    #: cluster was asked to stay at one shard (nothing to move load between).
    reason: str
    #: The router epoch after the call.
    epoch: int
    skew_before: float
    shard_count_before: int
    shard_count_after: int
    #: Per-shard request counts that drove the decision (pre-swap ids).
    per_shard_requests: dict[int, int] = field(default_factory=dict)
    #: Wall-clock spent building the new shard set (indexes, specs, worker
    #: spawns) — all of it while the old generation kept serving.
    build_ms: float = 0.0
    #: Wall-clock from the atomic swap until the old generation drained
    #: and closed.
    drain_ms: float = 0.0
    #: Whether the old generation drained inside the timeout.
    drained: bool = True

    def describe(self) -> dict[str, Any]:
        return {
            "swapped": self.swapped,
            "reason": self.reason,
            "epoch": self.epoch,
            "skew_before": round(self.skew_before, 3),
            "shards": f"{self.shard_count_before}->{self.shard_count_after}",
            "build_ms": round(self.build_ms, 3),
            "drain_ms": round(self.drain_ms, 3),
            "drained": self.drained,
        }


class LoadRebalancer:
    """Snapshots live cluster load and migrates the shard set online.

    One rebalancer serves one :class:`~repro.cluster.builder.ShardedCluster`
    for its lifetime.  :meth:`rebalance` is safe to call from any thread —
    requests keep flowing during the whole build-and-swap — but calls are
    serialised against each other: two concurrent migrations would race
    on the worker-pool generation and double-build the shard set for no
    benefit.
    """

    def __init__(
        self,
        cluster: ShardedCluster,
        *,
        skew_threshold: float = SKEW_THRESHOLD,
        min_requests: int = MIN_REQUESTS,
    ) -> None:
        self.cluster = cluster
        self.router = cluster.router
        self.skew_threshold = skew_threshold
        self.min_requests = min_requests
        self._migrate_lock = threading.Lock()

    # -- observing ---------------------------------------------------------------------

    def shard_loads(self) -> dict[int, int]:
        """Per-shard scatter counts since the last swap, zero-filled.

        Shards that received no traffic count as zeros — an idle shard is
        exactly what makes the cluster skewed, so leaving it out of the
        mean would hide the problem being measured.
        """
        stats = self.router.stats
        return {
            shard.shard_id: stats.per_shard_requests.get(shard.shard_id, 0)
            for shard in self.router.shards
        }

    def skew(self) -> float:
        """:func:`load_skew` of the per-shard loads since the last swap."""
        return load_skew(self.shard_loads())

    def observed_requests(self) -> int:
        """Scatter-gathers observed since the last swap."""
        return sum(self.shard_loads().values())

    def should_rebalance(self) -> bool:
        """True when observed traffic is skewed enough to act on."""
        if self.router.shard_count < 2:
            return False
        if self.observed_requests() < self.min_requests:
            return False
        return self.skew() >= self.skew_threshold

    # -- migrating ---------------------------------------------------------------------

    def repartition(
        self, shard_count: int | None = None
    ) -> dict[str, Partitioning]:
        """Derive the load-weighted partitionings (no migration yet)."""
        shard_count = shard_count or self.router.shard_count
        partitioner = LoadWeightedKDPartitioner(shard_count)
        loads = self.router.load_snapshot()
        partitionings: dict[str, Partitioning] = {}
        for canvas_id, canvas_plan in self.router.compiled.canvases.items():
            partitionings[canvas_id] = partitioner.partition(
                canvas_id,
                canvas_plan.width,
                canvas_plan.height,
                loads.get(canvas_id, LoadHistogram()),
            )
        return partitionings

    def maybe_rebalance(
        self, shard_count: int | None = None
    ) -> RebalanceReport | None:
        """Rebalance only if :meth:`should_rebalance`; None when skipped."""
        if not self.should_rebalance():
            return None
        return self.rebalance(shard_count)

    def rebalance(self, shard_count: int | None = None) -> RebalanceReport:
        """Build a load-weighted shard set and swap it in online.

        ``shard_count`` defaults to the current count (a pure re-split);
        passing a different count re-sizes the cluster in the same swap.
        The new generation keeps every other setting of the current one,
        ``replicas`` included.  Requests keep being served by the old
        generation for the whole build; the swap itself is one atomic
        table replacement, after which the old generation drains and
        closes.
        """
        with self._migrate_lock:
            return self._rebalance_locked(shard_count)

    def _rebalance_locked(self, shard_count: int | None) -> RebalanceReport:
        router = self.router
        current = router.table  # migrations are serialised: still current below
        old_count = len(current.shards)
        new_count = shard_count or old_count
        if new_count < 1:
            raise KyrixError(f"shard_count must be >= 1, got {new_count}")
        loads_before = self.shard_loads()
        skew_before = load_skew(loads_before)
        if old_count == 1 and new_count == 1:
            # Single-shard no-op: there is nothing to move load between.
            return RebalanceReport(
                swapped=False,
                reason="single_shard",
                epoch=current.epoch,
                skew_before=skew_before,
                shard_count_before=old_count,
                shard_count_after=old_count,
                per_shard_requests=loads_before,
            )

        config = replace(
            current.config,
            cluster=replace(current.config.cluster, shard_count=new_count),
        )
        partitionings = self.repartition(new_count)

        # Build the new generation beside the serving one: shard databases
        # and indexes first, then the serving stacks (and, in process
        # mode, a fresh WorkerPool generation with its own spec dumps).
        build_start = time.perf_counter()
        table = build_generation(
            self.cluster.source,
            config,
            partitionings=partitionings,
            tile_sizes=self.cluster.tile_sizes,
            epoch=current.epoch + 1,
        )
        build_ms = (time.perf_counter() - build_start) * 1000.0

        # Atomic swap, then drain and retire the old generation.
        drain_start = time.perf_counter()
        try:
            old_table = router.swap_shards(table)
        except BaseException:
            # The router refused the swap (e.g. it closed while we were
            # building): the freshly built generation is ours to tear
            # down, or its worker processes would outlive everything.
            table.close()
            raise
        drained = router.retire_table(old_table)
        drain_ms = (time.perf_counter() - drain_start) * 1000.0
        return RebalanceReport(
            swapped=True,
            reason="rebalanced",
            epoch=table.epoch,
            skew_before=skew_before,
            shard_count_before=old_count,
            shard_count_after=new_count,
            per_shard_requests=loads_before,
            build_ms=build_ms,
            drain_ms=drain_ms,
            drained=drained,
        )
