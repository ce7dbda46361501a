"""Online rebalance parity: byte-identical responses across a live migration.

The acceptance bar of the adaptive-repartitioning rework: on both
evaluation applications (usmap + EEG), in both worker topologies (threads +
processes), a cluster serving a skewed hotspot workload must be able to
re-split 2 -> 4 shards **while requests are in flight**, with

* every payload served before, *during* and after the swap byte-identical
  to the pre-rebalance payloads,
* the post-rebalance max/mean per-shard load ratio on the same hotspot
  trace strictly lower than the pre-rebalance ratio (the whole point of
  load-weighted splits), and
* the epoch bookkeeping (the generation's epoch, swapped shard tables,
  the new worker pool) consistent afterwards — and consistent
  *during* the drain too: the cluster handle reads the router's current
  generation, so there is no window in which the two disagree.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict

import pytest

from repro.bench.experiments import hotspot_box_requests
from repro.cluster import build_cluster
from repro.serving.faults import FaultInjectingService, FaultSchedule

from tests.cluster.conftest import parity_requests, payload_bytes

TOPOLOGIES = ("threads", "processes")


def hotspot_requests(stack, partitioning, count: int = 200):
    """Box requests confined to the interior of shard 0's region.

    Every request lands on one shard of the pre-rebalance partitioning, so
    the observed per-shard load is maximally skewed (skew == shard count)
    and the recorded load histogram concentrates in that region.  The
    trace itself is the benchmark's skewed pan workload
    (:func:`repro.bench.experiments.hotspot_box_requests`), so the test
    asserts on exactly the traffic shape the benchmark measures.
    """
    canvas_id, layer_index, _ = stack.boxes[0]
    region = partitioning.region(0).rect
    return hotspot_box_requests(
        stack.app_name, canvas_id, layer_index, region, steps=count
    )


@pytest.mark.parametrize("stack_fixture", ["usmap_parity_stack", "eeg_parity_stack"])
@pytest.mark.parametrize("worker_mode", TOPOLOGIES)
def test_live_rebalance_is_byte_invisible_and_lowers_skew(
    request, stack_fixture, worker_mode
):
    stack = request.getfixturevalue(stack_fixture)
    requests = parity_requests(stack)
    cluster = build_cluster(
        stack.backend,
        shard_count=2,
        strategy="grid",
        worker_mode=worker_mode,
        tile_sizes=stack.tile_sizes,
    )
    router = cluster.router
    rebalancer = cluster.rebalancer
    assert rebalancer is not None, "every built cluster carries a LoadRebalancer"
    try:
        canvas_id = stack.boxes[0][0]
        hotspot = hotspot_requests(stack, cluster.partitionings[canvas_id])

        # Pre-rebalance ground truth: every parity request and every
        # hotspot request, as served by the 2-shard cluster.
        expected = [payload_bytes(router.handle(r)) for r in requests]
        expected_hot = [payload_bytes(router.handle(r)) for r in hotspot]

        # The hotspot trace alone drives the skew decision.
        router.stats.reset()
        router.cache.clear()
        for data_request in hotspot:
            router.handle(data_request)
        skew_before = rebalancer.skew()
        assert skew_before == pytest.approx(2.0), (
            "hotspot requests must all land on shard 0 of the grid split"
        )
        assert rebalancer.should_rebalance()

        # Live migration: re-split 2 -> 4 in the background while the
        # foreground keeps hammering the hotspot (cache cleared every
        # round, so requests really scatter against whichever shard table
        # is current mid-swap).
        report_box: list = []
        worker = threading.Thread(
            target=lambda: report_box.append(rebalancer.rebalance(4)),
            daemon=True,
        )
        worker.start()
        while worker.is_alive():
            router.cache.clear()
            for data_request, want in zip(hotspot, expected_hot):
                assert payload_bytes(router.handle(data_request)) == want, (
                    f"payload diverged mid-rebalance ({worker_mode})"
                )
        worker.join(timeout=60.0)
        report = report_box[0]
        assert report.swapped and report.reason == "rebalanced"
        assert report.shard_count_before == 2
        assert report.shard_count_after == 4
        assert report.drained

        # Post-swap bookkeeping: new epoch, four shards, fresh counters.
        assert router.epoch == 1
        assert router.table.epoch == 1
        assert router.shard_count == 4
        assert cluster.shards is router.shards
        assert len(cluster.partitionings[canvas_id].regions) == 4
        assert cluster.worker_pool is router.table.worker_pool
        if worker_mode == "processes":
            assert cluster.worker_pool is not None
            assert cluster.worker_pool.generation == 1
            assert {w["alive"] for w in cluster.worker_pool.describe()} == {True}

        # Byte parity after the swap: the full parity workload (every tile
        # in both designs plus every box) served by the new 4-shard set is
        # identical to the 2-shard bytes.
        router.cache.clear()
        for data_request, want in zip(requests, expected):
            assert payload_bytes(router.handle(data_request)) == want, (
                f"payload diverged after rebalance ({worker_mode})"
            )

        # Load balance: the same hotspot trace now spreads across the
        # load-weighted splits — strictly better than before.
        router.stats.reset()
        router.cache.clear()
        for data_request in hotspot:
            router.handle(data_request)
        skew_after = rebalancer.skew()
        assert skew_after < skew_before, (
            f"rebalance did not improve the load split: "
            f"{skew_before:.3f} -> {skew_after:.3f} ({worker_mode})"
        )
    finally:
        cluster.close()


class _GateClock:
    """A fault-schedule clock whose ``advance`` parks the caller: the
    "slow" request stays inside its shard call until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def advance(self, _ms: float) -> None:
        self.entered.set()
        assert self.release.wait(timeout=60.0), "gate never released"


@pytest.mark.parametrize("replicas", [1, 2])
def test_cluster_handle_reads_the_live_generation_during_the_drain(
    usmap_parity_stack, replicas
):
    """The handle has no copy of the generation to fall behind: while a
    slow request still holds generation 0 in its drain window, cluster and
    router already agree on generation 1 — and once the straggler finishes,
    no counter reachable from the router counts it against generation 1."""
    stack = usmap_parity_stack
    cluster = build_cluster(
        stack.backend, shard_count=2, strategy="grid", replicas=replicas
    )
    router = cluster.router
    gate = _GateClock()
    try:
        canvas_id = stack.boxes[0][0]
        slow_request = hotspot_requests(
            stack, cluster.partitionings[canvas_id], count=1
        )[0]
        expected = payload_bytes(router.handle(slow_request))
        router.cache.clear()
        old_shards = cluster.shards
        old_shards[0].service = FaultInjectingService(
            old_shards[0].service, FaultSchedule.slow(1.0, count=1), clock=gate
        )

        served: list[bytes] = []
        slow = threading.Thread(
            target=lambda: served.append(payload_bytes(router.handle(slow_request))),
            daemon=True,
        )
        slow.start()
        assert gate.entered.wait(timeout=60.0)

        reports: list = []
        migration = threading.Thread(
            target=lambda: reports.append(cluster.rebalancer.rebalance(4)),
            daemon=True,
        )
        migration.start()
        deadline = time.monotonic() + 60.0
        while router.epoch == 0 and time.monotonic() < deadline:
            time.sleep(0.005)

        # Swapped, and the old generation is still draining.
        assert router.epoch == 1
        assert migration.is_alive() and slow.is_alive()
        assert cluster.shards is router.shards
        assert cluster.shards is not old_shards and len(cluster.shards) == 4
        table = router.table
        assert cluster.shards is table.shards
        assert cluster.partitionings is router.partitionings is table.partitionings
        assert cluster.worker_pool is table.worker_pool
        assert router.config.cluster.shard_count == 4

        gate.release.set()
        slow.join(timeout=60.0)
        migration.join(timeout=60.0)
        assert not slow.is_alive() and not migration.is_alive()
        assert served == [expected], "the straggler finished on its generation"
        assert reports[0].swapped and reports[0].drained

        # Nothing has been served on generation 1 yet: every counter keyed
        # by its shards or replicas is still empty.
        keyed = {
            name: value
            for name, value in asdict(router.stats).items()
            if isinstance(value, dict)
        }
        assert not any(keyed.values()), keyed
        assert len(router.replica_sets()) == (4 if replicas > 1 else 0)
        for shard_id, replica_set in router.replica_sets().items():
            assert replica_set.stats.snapshot() == {}, shard_id
    finally:
        gate.release.set()
        cluster.close()


@pytest.mark.parametrize("first", ["cluster", "router"])
def test_either_close_order_terminates_each_worker_once(usmap_parity_stack, first):
    """One owner: the generation's table closes its pool, whoever asks."""
    cluster = build_cluster(
        usmap_parity_stack.backend, shard_count=2, worker_mode="processes"
    )
    pool = cluster.worker_pool
    assert pool is cluster.router.table.worker_pool
    closers = [cluster.close, cluster.router.close]
    if first == "router":
        closers.reverse()
    closers[0]()
    assert all(not handle.alive for handle in pool.handles)
    exit_codes = [handle.process.exitcode for handle in pool.handles]
    # SIGTERM drains: every worker exited by itself, exactly once.
    assert exit_codes == [0] * len(pool.handles)
    closers[1]()
    assert [handle.process.exitcode for handle in pool.handles] == exit_codes
    assert cluster.worker_pool is pool


def test_single_shard_rebalance_is_a_no_op(usmap_parity_stack):
    cluster = build_cluster(
        usmap_parity_stack.backend, shard_count=1
    )
    try:
        report = cluster.rebalancer.rebalance()
        assert not report.swapped
        assert report.reason == "single_shard"
        assert cluster.router.epoch == 0
        assert cluster.router.table.epoch == 0
        # Below the traffic floor, maybe_rebalance declines quietly too.
        assert cluster.rebalancer.maybe_rebalance() is None
    finally:
        cluster.close()


def test_rebalance_after_close_refuses_and_leaks_nothing(usmap_parity_stack):
    """A rebalance racing (or following) close() must not strand a new
    shard generation: the swap is refused and the built stacks torn down."""
    from repro.errors import KyrixError

    cluster = build_cluster(
        usmap_parity_stack.backend,
        shard_count=2,
        worker_mode="processes",
    )
    cluster.close()
    with pytest.raises(KyrixError):
        cluster.rebalancer.rebalance(4)
    # Whatever the refused rebalance built was closed again: the live
    # pool is still generation 0 and fully terminated.
    assert cluster.worker_pool.generation == 0
    assert all(not handle.alive for handle in cluster.worker_pool.handles)
    assert cluster.router.epoch == 0


def test_should_rebalance_needs_traffic_and_skew(usmap_parity_stack):
    cluster = build_cluster(
        usmap_parity_stack.backend, shard_count=2, strategy="grid"
    )
    try:
        rebalancer = cluster.rebalancer
        # No traffic at all: perfectly balanced by definition.
        assert rebalancer.skew() == 1.0
        assert not rebalancer.should_rebalance()

        # Plenty of traffic, evenly spread: still no reason to act.
        requests = parity_requests(usmap_parity_stack)
        for data_request in requests:
            cluster.router.handle(data_request)
        assert rebalancer.observed_requests() >= rebalancer.min_requests
        assert rebalancer.skew() < rebalancer.skew_threshold
        assert not rebalancer.should_rebalance()
        assert rebalancer.maybe_rebalance() is None
    finally:
        cluster.close()
