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

import multiprocessing
from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.errors import WorkerConnectionError, WorkerSpawnError
from repro.net.protocol import DataRequest
from repro.serving import ReplicaService, WorkerPool, kill_worker, unwrap
from repro.serving.worker import ShardSpec, TableDump, build_shard_spec

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


def test_worker_spawn_failure_is_typed_and_cleans_up(dots_stack):
    shard = build_shard_spec(
        dots_stack.database,
        dots_stack.compiled,
        dots_stack.backend.config,
        shard_id=0,
    )
    # A good worker and one whose rows do not match its checksum: the second
    # reports the failure, and start() fails with a typed error after
    # tearing the first worker down again.
    bad = _hand_built_spec(
        dots_stack,
        TableDump(name="t", columns=(("x", "float"),), rows=((1,),), indexes=()),
        shard_id=1,
    )
    before = set(multiprocessing.active_children())
    pool = WorkerPool([shard, bad], spawn_timeout_s=5.0)
    with pytest.raises(WorkerSpawnError, match="shard1/replica0 failed to start"):
        pool.start()
    assert pool.handles == []
    assert _new_workers(before) == []


def _hand_built_spec(stack, *tables: TableDump, shard_id: int = 0) -> ShardSpec:
    return ShardSpec(
        shard_id=shard_id,
        config=stack.backend.config,
        plan=replace(stack.compiled, spec=None),
        tables=tables,
    )


def _new_workers(before: set) -> list:
    """Worker processes alive now that were not alive at ``before``."""
    return [
        process
        for process in set(multiprocessing.active_children()) - before
        if process.name.startswith("kyrix-worker")
    ]


def test_worker_whose_rebuild_differs_from_its_spec_fails_to_start(dots_stack):
    # A float column dumped with an int value: the worker's ``bulk_load``
    # coerces 1 -> 1.0, so its rebuilt copy hashes differently from the
    # spec it was sent, and the worker refuses to report ready.
    spec = _hand_built_spec(
        dots_stack,
        TableDump(name="t", columns=(("x", "float"),), rows=((1,),), indexes=()),
    )
    before = set(multiprocessing.active_children())
    pool = WorkerPool([spec])
    with pytest.raises(WorkerSpawnError, match="checksum mismatch"):
        pool.start()
    assert pool.handles == []
    assert not _new_workers(before)


#: Specs whose rows load fine but whose rebuilt copy is not the spec's bytes:
#: ``bulk_load`` widens bbox ints to floats and lists to tuples, and the
#: rebuilt database dumps its tables in name order and its indexes sorted.
_DRIFTING_TABLES = {
    "bbox_of_ints": (
        TableDump(name="t", columns=(("b", "bbox"),), rows=(((0, 0, 1, 1),),), indexes=()),
    ),
    "bbox_as_list": (
        TableDump(
            name="t", columns=(("b", "bbox"),), rows=(([0.0, 0.0, 1.0, 1.0],),), indexes=()
        ),
    ),
    "tables_out_of_name_order": (
        TableDump(name="u", columns=(("x", "float"),), rows=((1.0,),), indexes=()),
        TableDump(name="t", columns=(("x", "float"),), rows=((1.0,),), indexes=()),
    ),
    "indexes_out_of_order": (
        TableDump(
            name="t",
            columns=(("x", "float"), ("y", "float")),
            rows=((1.0, 2.0),),
            indexes=(("iy", "y", "btree", False), ("ix", "x", "btree", False)),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(_DRIFTING_TABLES))
def test_spawn_check_refuses_every_kind_of_rebuild_drift(dots_stack, case):
    pool = WorkerPool([_hand_built_spec(dots_stack, *_DRIFTING_TABLES[case])])
    with pytest.raises(WorkerSpawnError, match="checksum mismatch"):
        pool.start()
    assert pool.handles == []


def test_hand_built_spec_in_stored_form_spawns(dots_stack):
    # The same one-row table as above with the value already in its stored
    # form (1.0): the rebuild reproduces the spec byte for byte, so the
    # check at spawn lets the worker report ready.
    spec = _hand_built_spec(
        dots_stack,
        TableDump(name="t", columns=(("x", "float"),), rows=((1.0,),), indexes=()),
    )
    pool = WorkerPool([spec])
    try:
        (handle,) = pool.start()
        assert handle.alive and handle.port > 0
    finally:
        pool.close()
    assert not handle.alive


def test_spawn_check_failure_tears_down_sibling_workers(dots_stack):
    # Shard 0 is a real shard whose worker comes up; shard 1's rebuild
    # drifts.  The whole start() fails, and the healthy sibling it had
    # already forked is terminated with it.
    good = build_shard_spec(
        dots_stack.database,
        dots_stack.compiled,
        dots_stack.backend.config,
        shard_id=0,
    )
    bad = _hand_built_spec(
        dots_stack,
        TableDump(name="t", columns=(("x", "float"),), rows=((1,),), indexes=()),
        shard_id=1,
    )
    before = set(multiprocessing.active_children())
    pool = WorkerPool([good, bad])
    with pytest.raises(WorkerSpawnError, match=r"shard1/replica0 .*checksum mismatch"):
        pool.start()
    assert pool.handles == []
    assert not _new_workers(before)
