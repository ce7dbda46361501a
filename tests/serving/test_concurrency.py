"""Thread-safety regressions: cache and clock accounting under load.

Before the serving redesign, ``LRUCache`` updated its counters without
locks; concurrent sessions (the cluster's normal traffic) silently lost
increments.  These tests hammer the shared objects from many threads and
assert the counter identities hold *exactly* — a single lost update fails
them.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.metrics.timer import VirtualClock
from repro.net.protocol import DataRequest, RowBatch
from repro.server.cache import LRUCache
from repro.serving import (
    CachingService,
    FaultSchedule,
    SerializedService,
    fault_replica,
)


THREADS = 8
ROUNDS = 400


def _hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def run(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, errors[0]


class TestLRUCacheConcurrency:
    def test_hit_miss_accounting_is_exact(self):
        cache: LRUCache[int] = LRUCache(capacity=32)

        def worker(index):
            for round_ in range(ROUNDS):
                key = (index * ROUNDS + round_) % 48  # more keys than capacity
                if cache.get(key) is None:
                    cache.put(key, round_)

        _hammer(worker)
        lookups = THREADS * ROUNDS
        assert cache.stats.hits + cache.stats.misses == lookups
        assert len(cache) <= 32
        # Every insert either still resides in the cache or was evicted.
        assert cache.stats.inserts - cache.stats.evictions == len(cache)

    def test_concurrent_resize_keeps_capacity_invariant(self):
        cache: LRUCache[int] = LRUCache(capacity=64)

        def worker(index):
            for round_ in range(ROUNDS):
                cache.put((index, round_), round_)
                if round_ % 97 == 0:
                    cache.capacity = 16 + (round_ % 3) * 16
        _hammer(worker)
        assert len(cache) <= cache.capacity
        assert cache.stats.inserts - cache.stats.evictions == len(cache)


class TestVirtualClockConcurrency:
    def test_advances_never_lost(self):
        clock = VirtualClock()

        def worker(index):
            for _ in range(ROUNDS):
                clock.advance(0.25)

        _hammer(worker)
        assert clock.now_ms == pytest.approx(0.25 * THREADS * ROUNDS)


class TestSharedBatchReaders:
    """A batch is shared by the caches and every session they answer, with
    no lock (see ``RowBatch``): it never changes, and every read builds its
    own dictionaries — so racing readers see equal rows, and the rows one
    reader edits are nobody else's."""

    NAMES = ("tuple_id", "x", "bbox")

    def test_eight_readers_see_equal_rows_of_their_own(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads in the middle of a read
        try:
            for _ in range(40):
                tuples = [(row, row * 0.5, (0.0, float(row))) for row in range(200)]
                expected = [dict(zip(self.NAMES, row)) for row in tuples]
                batch = RowBatch(self.NAMES, list(tuples))
                seen: list = [None] * THREADS

                def worker(index):
                    # Every way a holder reads a shared batch, racing, and
                    # every reader edits what it read.
                    assert len(batch) == 200
                    rows, row, dicts = list(batch), batch[index], batch.to_dicts()
                    for mine in (rows[index], row, dicts[index]):
                        mine["x"] = -1.0
                    seen[index] = (list(batch), batch[index], batch.to_dicts())

                _hammer(worker)
                for index, (rows, row, dicts) in enumerate(seen):
                    assert rows == expected and dicts == expected
                    assert row == expected[index]
                assert len({id(dicts[0]) for _, _, dicts in seen}) == THREADS
                assert batch.rows == tuples
        finally:
            sys.setswitchinterval(interval)


class TestConcurrentSessionsThroughSharedStack:
    def test_shared_caching_service_accounts_every_request(self, dots_stack, box_request):
        """The satellite regression: concurrent sessions over one shared stack."""
        backend = dots_stack.backend
        shared = CachingService(SerializedService(backend), entries=64)
        responses_per_thread = 50

        def worker(index):
            for _ in range(responses_per_thread):
                response = shared.handle(box_request)
                assert response.objects, "shared stack returned an empty payload"

        _hammer(worker)
        lookups = THREADS * responses_per_thread
        stats = shared.cache.stats
        assert stats.hits + stats.misses == lookups
        # At least one miss (the first fetch); at most one fetch per thread
        # can race past the cache before the first insert lands.
        assert 1 <= stats.misses <= THREADS
        assert stats.hits >= lookups - THREADS


class TestReplicatedClusterConcurrency:
    """The replica satellite: hammer a 2-shard × 2-replica cluster with
    faults injected and assert payload integrity and exact counter
    identities all survive."""

    def test_faulted_cluster_under_concurrent_sessions(self, dots_stack):
        from repro.cluster import build_cluster

        cluster = build_cluster(dots_stack.backend, shard_count=2, replicas=2)
        # Per-request identities below need every request to really
        # scatter: no router cache, and every thread asks for its own boxes
        # so no two requests are ever identical and in flight together.
        cluster.router.cache.capacity = 0
        service = cluster.router
        try:
            # Replica 0 of every shard fails each request (dead replicas).
            for layer in cluster.router.replica_sets().values():
                fault_replica(layer, 0, FaultSchedule.fail_always())
            plan = dots_stack.compiled.canvas_plan("dots")
            per_thread = 6
            requests = [
                DataRequest(
                    canvas_id="dots",
                    layer_index=0, granularity="box",
                    xmin=7.0 * i, ymin=5.0 * i,
                    xmax=min(7.0 * i + 420.0, plan.width),
                    ymax=min(5.0 * i + 420.0, plan.height),
                )
                for i in range(THREADS * per_thread)
            ]
            expected = {
                req.cache_key(): sorted(
                    o["tuple_id"] for o in dots_stack.backend.handle(req).objects
                )
                for req in requests
            }
            assert len(expected) == len(requests)
            rounds = 12

            def worker(index):
                for _ in range(rounds):
                    for req in requests[index::THREADS]:
                        response = service.handle(req)
                        got = sorted(o["tuple_id"] for o in response.objects)
                        # Interleaving corruption would show up as another
                        # request's (or a partial) payload.
                        assert got == expected[req.cache_key()]

            _hammer(worker)

            issued = rounds * len(requests)
            # Exact totals: no lost increments anywhere, and every request
            # led its own scatter-gather.
            assert cluster.router.cache.stats.misses == issued
            assert cluster.router.stats.scatter_gathers == issued
            assert cluster.router.coalescer.stats.leaders == issued
            for shard_id, layer in cluster.router.replica_sets().items():
                stats = layer.stats
                # The dead replica never answered; every scatter that
                # reached this shard succeeded on replica 1, exactly once.
                assert stats.failures_for(0) == stats.requests_for(0)
                assert stats.failures_for(1) == 0
                assert stats.requests_for(1) == (
                    cluster.router.stats.per_shard_requests.get(shard_id, 0)
                )
        finally:
            cluster.close()
