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
from repro.telemetry import configure, get_tracer

from tests.cluster.conftest import parity_requests as _all_requests
from tests.cluster.conftest import payload_bytes as _payload_bytes


def _handle_traced(router, data_request):
    """The response and the durations of its traced ``shard`` spans."""
    response = router.handle(data_request)
    spans = get_tracer().last_trace()["spans"]
    return response, [span["duration_ms"] for span in spans if span["name"] == "shard"]


@pytest.mark.parametrize("stack_fixture", ["usmap_parity_stack", "eeg_parity_stack"])
@pytest.mark.parametrize("shard_count", [2, 4])
def test_parallel_router_is_byte_identical_to_sequential(
    request, stack_fixture, shard_count
):
    stack = request.getfixturevalue(stack_fixture)
    tile_sizes = stack.tile_sizes
    parallel = build_cluster(
        stack.backend, shard_count=shard_count, tile_sizes=tile_sizes, telemetry=True
    )
    sequential = build_cluster(
        stack.backend,
        shard_count=shard_count,
        tile_sizes=tile_sizes,
        parallel_shards=False,
        wire_shards=False,
        telemetry=True,
    )
    try:
        assert parallel.router.parallel is True
        assert sequential.router.parallel is False
        compared = 0
        for data_request in _all_requests(stack):
            par, par_shards = _handle_traced(parallel.router, data_request)
            seq, seq_shards = _handle_traced(sequential.router, data_request)
            assert _payload_bytes(par) == _payload_bytes(seq), (
                f"parallel/sequential payloads diverged for {data_request}"
            )
            single = stack.backend.handle(data_request)
            assert sorted(o["tuple_id"] for o in par.objects) == sorted(
                o["tuple_id"] for o in single.objects
            )
            # ``query_ms`` is the measured scatter-gather, so each ``shard``
            # span ran inside it (a cache hit reports 0 and is exempt).
            for gathered, spans_ms in ((par, par_shards), (seq, seq_shards)):
                if not gathered.from_cache:
                    assert gathered.query_ms >= max(spans_ms)
            compared += 1
        assert compared > 0
        assert max(parallel.router.stats.fanout) > 1, (
            "the parity suite never exercised a multi-shard fan-out"
        )
    finally:
        configure(enabled=False)
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


def _pool_threads() -> set[threading.Thread]:
    """The live threads of every generation's scatter pool."""
    return {
        thread for thread in threading.enumerate() if thread.name.startswith("kyrix-shard")
    }


def _statemap_box(stack, xmin, ymin, xmax, ymax) -> DataRequest:
    return DataRequest(
        canvas_id="statemap",
        layer_index=0,
        granularity="box",
        xmin=xmin,
        ymin=ymin,
        xmax=xmax,
        ymax=ymax,
    )


def test_executor_is_lazy_and_close_is_idempotent(usmap_parity_stack):
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=2)
    before = _pool_threads()
    try:
        router = cluster.router
        assert router.table.executor is not None
        # A fan-out 1 request does not start a pool thread.
        region = cluster.partitionings["statemap"].regions[0].rect
        small = _statemap_box(
            stack, region.xmin + 1.0, region.ymin + 1.0, region.xmin + 4.0, region.ymin + 4.0
        )
        router.handle(small)
        assert router.stats.fanout == {1: 1}
        assert _pool_threads() <= before
        # A full-canvas box fans out on the pool.
        plan = stack.backend.compiled.canvas_plan("statemap")
        wide = _statemap_box(stack, 0.0, 0.0, plan.width, plan.height)
        router.handle(wide)
        assert router.stats.fanout == {1: 1, 2: 1}
        assert _pool_threads() - before
        # The pool is the generation's: retiring the table shuts it down,
        # and the next generation scatters on its own.
        retired = router.table
        assert cluster.rebalancer.rebalance(4).swapped
        with pytest.raises(RuntimeError):
            retired.executor.submit(int)
        assert router.table.executor is not retired.executor
        router.cache.clear()
        router.handle(wide)
        assert router.stats.fanout == {4: 1}
    finally:
        cluster.close()
        cluster.close()  # idempotent
    with pytest.raises(RuntimeError):
        router.table.executor.submit(int)


def test_sequential_config_never_creates_an_executor(usmap_parity_stack):
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=2, parallel_shards=False)
    before = _pool_threads()
    try:
        assert cluster.router.table.executor is None
        assert cluster.router.parallel is False
        plan = stack.backend.compiled.canvas_plan("statemap")
        wide = _statemap_box(stack, 0.0, 0.0, plan.width, plan.height)
        cluster.router.handle(wide)
        assert cluster.router.stats.fanout == {2: 1}
        assert _pool_threads() <= before
    finally:
        cluster.close()


def test_closing_a_generation_does_not_wait_on_its_running_pool_calls(usmap_parity_stack):
    """``ShardTable.close()`` shuts the pool down without waiting, so a
    straggling shard call cannot stretch a drain timeout; the call it left
    running still completes."""
    cluster = build_cluster(usmap_parity_stack.backend, shard_count=2)
    executor = cluster.router.table.executor
    release = threading.Event()
    running = executor.submit(lambda: release.wait(10.0))
    closer = threading.Thread(target=cluster.close)
    try:
        closer.start()
        closer.join(5.0)
        assert not closer.is_alive()
        assert not running.done()
        with pytest.raises(RuntimeError):
            executor.submit(int)
    finally:
        release.set()
        closer.join(5.0)
    assert running.result(5.0) is True


class _CannedShard(ServiceMiddleware):
    """A shard that answers every request with the same objects."""

    def __init__(self, inner, objects):
        super().__init__(inner)
        self._objects = objects

    def handle(self, request):
        return DataResponse(
            request=request, objects=[dict(obj) for obj in self._objects], queries_issued=1
        )


#: What the two shards of the gather-order case return, rows of one table:
#: a boundary duplicate (``tuple_id`` 7 on both), rows with a NULL
#: ``tuple_id`` (their whole content is their identity; one of them on both
#: shards) next to int ones — identities with no natural order, so the
#: canonical sort takes its ``repr`` fallback, which puts 12 before 4.
_GATHER_SHARD_OBJECTS = (
    [
        {"tuple_id": 7, "x": 1.5, "label": "a"},
        {"tuple_id": None, "x": 0.5, "label": "loose"},
        {"tuple_id": 30, "x": 3.5, "label": "c"},
    ],
    [
        {"tuple_id": 12, "x": 4.5, "label": "d"},
        {"tuple_id": 7, "x": 1.5, "label": "a"},
        {"tuple_id": 4, "x": 5.5, "label": "e"},
        {"tuple_id": None, "x": 0.5, "label": "loose"},
        {"tuple_id": None, "x": None, "label": "other"},
    ],
)

#: The gathered objects as ``DataResponse.to_json()`` carries them: the
#: order ``tests/cluster/reference_merge.py`` gives the same two shards.
_GATHER_EXPECTED_OBJECTS = (
    '"objects": [{"label": "loose", "tuple_id": null, "x": 0.5}, '
    '{"label": "other", "tuple_id": null, "x": null}, '
    '{"label": "d", "tuple_id": 12, "x": 4.5}, {"label": "c", "tuple_id": 30, "x": 3.5}, '
    '{"label": "e", "tuple_id": 4, "x": 5.5}, {"label": "a", "tuple_id": 7, "x": 1.5}]'
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
        wide = _statemap_box(stack, 0.0, 0.0, plan.width, plan.height)
        response = cluster.router.handle(wide)
        assert cluster.router.stats.fanout == {2: 1}
        assert cluster.router.stats.duplicates_removed == 2
        assert _GATHER_EXPECTED_OBJECTS in response.to_json()
    finally:
        cluster.close()


class _Recording(ServiceMiddleware):
    """A shard that notes each request it is handed, then serves it."""

    def __init__(self, inner, seen):
        super().__init__(inner)
        self._seen = seen

    def handle(self, request):
        self._seen.append(request)
        return self.inner.handle(request)


def test_every_shard_is_handed_the_callers_own_request(usmap_parity_stack):
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=4)
    seen: list[DataRequest] = []
    try:
        for shard in cluster.shards:
            shard.service = _Recording(shard.service, seen)
        plan = stack.backend.compiled.canvas_plan("statemap")
        wide = _statemap_box(stack, 0.0, 0.0, plan.width, plan.height)
        cluster.router.handle(wide)
        # No per-shard copy: a request names a region, whichever shard serves it.
        assert len(seen) == 4
        assert all(request is wide for request in seen)
    finally:
        cluster.close()
