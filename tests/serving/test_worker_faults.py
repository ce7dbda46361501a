"""Chaos tests for process-based shard workers: kill them for real.

Unlike every other failure suite, nothing here is simulated: the worker is
an actual forked OS process and ``kill_worker`` (the
:mod:`repro.serving.faults` seam — no monkeypatching) sends it a real
SIGKILL.  The failure the stack must mask is a dead TCP endpoint —
connection refused / reset — surfacing as
:class:`~repro.errors.WorkerConnectionError`, which the replica layer
treats as fatal: the breaker opens on the first failed attempt and the
request fails over to a healthy replica with a byte-identical payload.
"""

from __future__ import annotations

import gc
import multiprocessing
import weakref

import pytest

from repro.cluster import build_cluster
from repro.config import ClusterConfig, KyrixConfig, StorageConfig
from repro.errors import KyrixError, WorkerConnectionError, WorkerSpawnError
from repro.net.protocol import DataRequest
from repro.serving import (
    RemoteBackendStub,
    ReplicaService,
    WorkerPool,
    build_service,
    kill_worker,
    unwrap,
)

from tests.cluster.conftest import payload_bytes


def _box(stack, nudge: float = 0.0) -> DataRequest:
    """A full-canvas box (touches every shard); ``nudge`` defeats caches."""
    return DataRequest(
        canvas_id="dots",
        layer_index=0,
        granularity="box",
        xmin=0.0,
        ymin=0.0,
        xmax=2000.0 + nudge,
        ymax=2000.0,
    )


@pytest.fixture()
def worker_cluster(dots_stack):
    cluster = build_cluster(
        dots_stack.backend, shard_count=2, replicas=2, worker_mode="processes"
    )
    yield cluster
    cluster.close()


def test_killed_worker_fails_over_byte_identically(dots_stack, worker_cluster):
    # A fault-free single-replica thread cluster is the payload oracle (the
    # topology parity suite proves healthy topologies agree byte-for-byte).
    baseline = build_cluster(dots_stack.backend, shard_count=2, replicas=1)
    try:
        requests = [_box(dots_stack, i) for i in range(4)]
        expected = [payload_bytes(baseline.router.handle(r)) for r in requests]
        assert any(payload != b"[]" for payload in expected)

        handle = kill_worker(worker_cluster, shard_id=0, replica_index=0)
        assert not handle.alive

        degraded = [
            payload_bytes(worker_cluster.router.handle(r)) for r in requests
        ]
        assert degraded == expected, "failover changed the served payload"
    finally:
        baseline.close()


def test_worker_death_is_fatal_and_opens_the_breaker(dots_stack, worker_cluster):
    kill_worker(worker_cluster, shard_id=0, replica_index=0)
    # Drive traffic at shard 0 until the dead replica has been attempted.
    for i in range(4):
        worker_cluster.router.handle(_box(dots_stack, i + 1))
    replica_sets = worker_cluster.router.replica_sets()
    replica_set = replica_sets[0]

    failures = replica_set.stats.failures_for(0)
    # Fatal failure: the very first WorkerConnectionError opens the breaker
    # (breaker_threshold is 3, but a dead process earns no doomed retries),
    # and the open breaker shields the replica from further attempts.
    assert failures == 1, "expected exactly one fatal attempt at the dead worker"
    assert replica_set.breaker_open(0)
    # Every failure is attributed to the killed replica and nothing else.
    assert {
        (shard_id, index): count
        for shard_id, layer in replica_sets.items()
        for index, count in layer.stats.per_replica_failures().items()
        if count
    } == {(0, 0): 1}


def test_single_replica_worker_death_surfaces_typed_error(dots_stack):
    cluster = build_cluster(
        dots_stack.backend, shard_count=2, replicas=1, worker_mode="processes"
    )
    try:
        assert cluster.router.handle(_box(dots_stack)).objects
        kill_worker(cluster, shard_id=0)
        with pytest.raises(WorkerConnectionError):
            cluster.router.handle(_box(dots_stack, 1.0))
    finally:
        cluster.close()


def test_close_drains_after_a_kill(dots_stack, worker_cluster):
    worker_cluster.router.handle(_box(dots_stack))
    kill_worker(worker_cluster, shard_id=1, replica_index=1)
    worker_cluster.close()
    assert all(not handle.alive for handle in worker_cluster.worker_pool.handles)
    # Idempotent: a second close (the fixture's) must be a no-op.
    worker_cluster.close()


def test_unwrap_reaches_replica_sets_in_process_topology(worker_cluster):
    replica_layer = unwrap(worker_cluster.router, ReplicaService)
    assert isinstance(replica_layer, ReplicaService)
    assert replica_layer.replica_count == 2


#: Configurations that build a backend but fail ``validate()``, one per
#: section the worker checks, with the reason its error report names.
_UNSERVABLE_CONFIGS = {
    "viewport": (KyrixConfig(viewport_width=0), "viewport dimensions"),
    "storage": (
        KyrixConfig(storage=StorageConfig(buffer_pool_pages=2)),
        "buffer_pool_pages must be >= 8",
    ),
    "cluster": (
        KyrixConfig(cluster=ClusterConfig(shard_count=0)),
        "shard_count must be >= 1",
    ),
}


def _unservable_backend(stack, case: str = "viewport"):
    """The stack's database and plan under a configuration that fails
    ``validate()``: a worker forked with it reports the error instead of
    ready."""
    service = build_service(
        _UNSERVABLE_CONFIGS[case][0],
        database=stack.database,
        compiled=stack.compiled,
        precompute=False,
    )
    return unwrap(service)


def _new_workers(before: set) -> list:
    """Worker processes alive now that were not alive at ``before``."""
    return [
        process
        for process in set(multiprocessing.active_children()) - before
        if process.name.startswith("kyrix-worker")
    ]


@pytest.mark.parametrize("case", sorted(_UNSERVABLE_CONFIGS))
def test_worker_whose_config_does_not_validate_fails_to_start(dots_stack, case):
    # The worker validates every section of the configuration it inherits
    # before it binds a port, and reports the first failure by name.
    before = set(multiprocessing.active_children())
    pool = WorkerPool([(0, _unservable_backend(dots_stack, case))])
    reason = _UNSERVABLE_CONFIGS[case][1]
    with pytest.raises(
        WorkerSpawnError,
        match=rf"shard0/replica0 failed to start: KyrixError: {reason}",
    ):
        pool.start()
    assert pool.handles == []
    assert not _new_workers(before)


def test_workers_serve_the_backend_they_inherit(dots_stack, box_request):
    # One backend listed twice is two replicas of shard 0.  Each forked
    # worker answers from the parent's built index: the payload that comes
    # back over its socket is byte-identical to the backend's own.
    backend = dots_stack.backend
    expected = payload_bytes(backend.handle(box_request))
    assert expected != b"[]"
    pool = WorkerPool([(0, backend), (0, backend)], spawn_timeout_s=5.0)
    try:
        handles = pool.start()
        assert [(h.shard_id, h.replica_index) for h in handles] == [(0, 0), (0, 1)]
        assert len({h.pid for h in handles}) == 2
        for handle in handles:
            assert handle.alive and handle.port > 0
            stub = RemoteBackendStub(handle.transport(), backend.compiled, backend.config)
            try:
                assert payload_bytes(stub.handle(box_request)) == expected
            finally:
                stub.close()
    finally:
        pool.close()
    assert not any(handle.alive for handle in handles)


def test_started_pool_keeps_no_reference_to_its_backends(dots_stack):
    # The backends only seed the forks: once start() returns, neither the
    # pool nor its handles reach them, so the parent can free the shard.
    backend = unwrap(
        build_service(
            dots_stack.backend.config,
            database=dots_stack.database,
            compiled=dots_stack.compiled,
            precompute=False,
        )
    )
    ref = weakref.ref(backend)
    pool = WorkerPool([(0, backend), (1, backend)], spawn_timeout_s=5.0)
    try:
        del backend
        pool.start()
        assert pool.backends == []
        gc.collect()
        assert ref() is None, "the started worker pool still holds a backend"
        assert all(handle.alive for handle in pool.handles)
    finally:
        pool.close()


def test_spawn_failure_tears_down_sibling_workers(dots_stack):
    # Shard 0 is a real shard served by two replicas that come up; shard
    # 1's worker reports an error.  The whole start() fails with a typed
    # error, and the healthy siblings it had already forked are
    # terminated with it.
    good = dots_stack.backend
    before = set(multiprocessing.active_children())
    pool = WorkerPool(
        [(0, good), (0, good), (1, _unservable_backend(dots_stack))],
        spawn_timeout_s=5.0,
    )
    with pytest.raises(WorkerSpawnError, match="shard1/replica0 failed to start"):
        pool.start()
    assert pool.handles == []
    assert not _new_workers(before)


def test_process_build_without_fork_is_refused_before_any_worker(dots_stack, monkeypatch):
    # Where the platform cannot fork, a processes build stops at config
    # validation with a typed refusal: no worker is started and nothing
    # falls back to another start method.
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    before = set(multiprocessing.active_children())
    with pytest.raises(KyrixError, match="'fork' start method"):
        build_cluster(dots_stack.backend, shard_count=2, worker_mode="processes")
    assert not _new_workers(before)
