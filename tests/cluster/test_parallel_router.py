"""Parallel scatter-gather parity: thread-pool and sequential routers agree.

The acceptance bar of the parallel rework: on the usmap and EEG parity
stacks, at 2 and 4 shards, a router executing shard queries on its thread
pool returns **byte-identical** object payloads to a sequential router built
from the same backend — and both match the unsharded backend.  Shard calls
cross the wire transport in the parallel cluster (the default build), so
the comparison also covers JSON encode/decode on the shard boundary.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import build_cluster
from repro.net.protocol import DataRequest, DataResponse
from repro.serving.base import ServiceMiddleware

from tests.cluster.conftest import parity_requests as _all_requests
from tests.cluster.conftest import payload_bytes as _payload_bytes


@pytest.mark.parametrize("stack_fixture", ["usmap_parity_stack", "eeg_parity_stack"])
@pytest.mark.parametrize("shard_count", [2, 4])
def test_parallel_router_is_byte_identical_to_sequential(
    request, stack_fixture, shard_count
):
    stack = request.getfixturevalue(stack_fixture)
    tile_sizes = stack.tile_sizes
    parallel = build_cluster(
        stack.backend, shard_count=shard_count, tile_sizes=tile_sizes
    )
    sequential = build_cluster(
        stack.backend,
        shard_count=shard_count,
        tile_sizes=tile_sizes,
        parallel_shards=False,
        wire_shards=False,
    )
    try:
        assert parallel.router.parallel is True
        assert sequential.router.parallel is False
        compared = 0
        saw_fanout = False
        for data_request in _all_requests(stack):
            par = parallel.router.handle(data_request)
            seq = sequential.router.handle(data_request)
            assert _payload_bytes(par) == _payload_bytes(seq), (
                f"parallel/sequential payloads diverged for {data_request}"
            )
            single = stack.backend.handle(data_request)
            assert sorted(o["tuple_id"] for o in par.objects) == sorted(
                o["tuple_id"] for o in single.objects
            )
            # ``query_ms`` is the measured scatter-gather, so each shard's
            # own stopwatch ran inside it (a cache hit reports 0 and is exempt).
            for gathered in (par, seq):
                if not gathered.from_cache:
                    assert gathered.query_ms >= max(gathered.shard_ms.values())
            saw_fanout = saw_fanout or len(par.shard_ms) > 1
            compared += 1
        assert compared > 0
        assert saw_fanout, "the parity suite never exercised a multi-shard fan-out"
    finally:
        parallel.close()
        sequential.close()


def test_parallel_router_under_concurrent_sessions(usmap_parity_stack):
    """Concurrent sessions through one parallel router lose no data or stats."""
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=4)
    try:
        requests = [
            r for r in _all_requests(stack) if r.granularity == "box"
        ] or _all_requests(stack)[:4]
        expected = {
            req.cache_key(): sorted(
                o["tuple_id"] for o in stack.backend.handle(req).objects
            )
            for req in requests
        }
        threads = 6
        rounds = 5
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def worker(index):
            try:
                barrier.wait()
                for _ in range(rounds):
                    for req in requests:
                        response = cluster.router.handle(req)
                        got = sorted(o["tuple_id"] for o in response.objects)
                        assert got == expected[req.cache_key()]
            except BaseException as error:
                errors.append(error)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors, errors[0]
        # No lost increments, each event counted once by its own layer:
        # every handle() call looked up the cache once, every miss led or
        # followed exactly one coalesced call, every leader scattered once.
        cache = cluster.router.cache.stats
        coalescer = cluster.router.coalescer.stats
        assert cache.hits + cache.misses == threads * rounds * len(requests)
        assert coalescer.leaders == cluster.router.stats.scatter_gathers
        assert coalescer.leaders + coalescer.followers == cache.misses
    finally:
        cluster.close()


def test_executor_is_lazy_and_close_is_idempotent(usmap_parity_stack):
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=2)
    try:
        router = cluster.router
        assert router._executor is None
        # A fan-out 1 request does not spin up the pool.
        region = cluster.partitionings["statemap"].regions[0].rect
        small = DataRequest(
            app_name=stack.app_name,
            canvas_id="statemap",
            layer_index=0,
            granularity="box",
            xmin=region.xmin + 1.0,
            ymin=region.ymin + 1.0,
            xmax=region.xmin + 4.0,
            ymax=region.ymin + 4.0,
        )
        router.handle(small)
        assert router._executor is None
        # A full-canvas box fans out and creates it.
        plan = stack.backend.compiled.canvas_plan("statemap")
        wide = DataRequest(
            app_name=stack.app_name,
            canvas_id="statemap",
            layer_index=0,
            granularity="box",
            xmin=0.0,
            ymin=0.0,
            xmax=plan.width,
            ymax=plan.height,
        )
        response = router.handle(wide)
        assert len(response.shard_ms) == 2
        assert router._executor is not None
    finally:
        cluster.close()
        cluster.close()  # idempotent


def test_sequential_config_never_creates_an_executor(usmap_parity_stack):
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=2, parallel_shards=False)
    try:
        plan = stack.backend.compiled.canvas_plan("statemap")
        wide = DataRequest(
            app_name=stack.app_name,
            canvas_id="statemap",
            layer_index=0,
            granularity="box",
            xmin=0.0,
            ymin=0.0,
            xmax=plan.width,
            ymax=plan.height,
        )
        response = cluster.router.handle(wide)
        assert len(response.shard_ms) == 2
        assert cluster.router._executor is None
    finally:
        cluster.close()


class _CannedShard(ServiceMiddleware):
    """A shard that answers every request with the same objects."""

    def __init__(self, inner, objects):
        super().__init__(inner)
        self._objects = objects

    def handle(self, request):
        return DataResponse(
            request=request, objects=[dict(obj) for obj in self._objects], queries_issued=1
        )


#: What the two shards of the gather-order case return: a boundary
#: duplicate (``tuple_id`` 7 on both), objects without a ``tuple_id`` (their
#: whole content is their identity; one of them on both shards), and int
#: next to str ``tuple_id``s — identities with no natural order, so the
#: canonical sort takes its ``repr`` fallback.
_GATHER_SHARD_OBJECTS = (
    [
        {"tuple_id": 7, "x": 1.5},
        {"tuple_id": "b", "x": 2.5},
        {"label": "loose", "bbox": (0.0, 1.0)},
        {"tuple_id": 30, "x": 3.5},
    ],
    [
        {"tuple_id": "a", "x": 4.5},
        {"tuple_id": 7, "x": 1.5},
        {"tuple_id": 4, "x": 5.5},
        {"label": "loose", "bbox": (0.0, 1.0)},
        {"label": "other", "tuple_id": None},
    ],
)

#: The gathered objects as ``DataResponse.to_json()`` carries them, recorded
#: at the parent of PR 20 (which computed an identity per merge *and* per sort).
_GATHER_EXPECTED_OBJECTS = (
    '"objects": [{"tuple_id": "a", "x": 4.5}, {"tuple_id": "b", "x": 2.5}, '
    '{"bbox": [0.0, 1.0], "label": "loose"}, {"label": "other", "tuple_id": null}, '
    '{"tuple_id": 30, "x": 3.5}, {"tuple_id": 4, "x": 5.5}, {"tuple_id": 7, "x": 1.5}]'
)


def test_gather_keeps_its_order_with_duplicates_and_mixed_identities(
    usmap_parity_stack,
):
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=2)
    try:
        for shard, objects in zip(cluster.shards, _GATHER_SHARD_OBJECTS):
            shard.service = _CannedShard(shard.service, objects)
        plan = stack.backend.compiled.canvas_plan("statemap")
        wide = DataRequest(
            app_name=stack.app_name,
            canvas_id="statemap",
            layer_index=0,
            granularity="box",
            xmin=0.0,
            ymin=0.0,
            xmax=plan.width,
            ymax=plan.height,
        )
        response = cluster.router.handle(wide)
        assert len(response.shard_ms) == 2
        assert cluster.router.stats.duplicates_removed == 2
        assert _GATHER_EXPECTED_OBJECTS in response.to_json()
    finally:
        cluster.close()
