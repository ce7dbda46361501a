"""Slim parent: process-worker clusters drop the parent-side shard copies.

With ``worker_mode="processes"`` every worker rebuilds its own index from a
:class:`~repro.serving.worker.ShardSpec` dump, so the parent-side shard
databases only exist to seed those dumps.  Keeping them would hold every
shard's rows in the parent a second time for the cluster's whole serving
lifetime — the memory-win assertion here counts live
:class:`~repro.storage.database.Database` instances in the parent and
proves that building a process cluster adds **none** (only the source
backend's database stays), while serving, shard bookkeeping and teardown
keep working without the detached copies.
"""

from __future__ import annotations

import gc
import json

from repro.cluster import build_cluster
from repro.serving import RemoteBackendStub, build_shard_spec, stack_layers
from repro.storage.database import Database

from tests.cluster.conftest import parity_requests, payload_bytes


def _live_databases() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Database))


def test_process_cluster_holds_no_parent_side_shard_databases(usmap_parity_stack):
    stack = usmap_parity_stack
    requests = parity_requests(stack)
    expected = [payload_bytes(stack.backend.handle(r)) for r in requests[:8]]

    databases_before = _live_databases()
    cluster = build_cluster(
        stack.backend,
        shard_count=2,
        worker_mode="processes",
        tile_sizes=stack.tile_sizes,
    )
    try:
        # The memory win: the shard databases built to seed the worker
        # specs are gone from the parent — zero net Database objects.
        assert _live_databases() == databases_before, (
            "process-worker build leaked parent-side shard databases"
        )
        for shard in cluster.shards:
            assert shard.database is None
            assert shard.backend is None
            # The counts survive detachment: describe()/balance reporting
            # never needed the rows themselves.
            assert shard.rows_by_table
            assert shard.total_rows > 0

        # Serving is untouched: workers own the only live copies.
        for data_request, want in zip(requests[:8], expected):
            response = cluster.router.handle(data_request)
            assert sorted(obj["tuple_id"] for obj in response.objects) == sorted(
                obj["tuple_id"] for obj in json.loads(want.decode("utf-8"))
            )
        description = cluster.describe()
        assert len(description["shards"]) == 2
        assert all(entry["rows_by_table"] for entry in description["shards"])
    finally:
        cluster.close()


def test_thread_cluster_keeps_its_embedded_databases(usmap_parity_stack):
    """The thread topology serves *from* the parent copies — no detach."""
    cluster = build_cluster(usmap_parity_stack.backend, shard_count=2)
    try:
        for shard in cluster.shards:
            assert shard.database is not None
            assert shard.backend is not None
    finally:
        cluster.close()


def test_worker_specs_carry_the_configuration_being_served(usmap_parity_stack):
    """A process build dumps every ``ShardSpec`` from the generation's one
    effective configuration, so the ``cluster`` section a worker stands up
    from is the overridden one the router reports — not the source
    backend's defaults."""
    stack = usmap_parity_stack
    base = stack.backend.config.cluster
    assert (base.shard_count, base.replicas) != (2, 2)
    cluster = build_cluster(
        stack.backend, shard_count=2, replicas=2, worker_mode="processes"
    )
    try:
        served = cluster.router.config
        assert (served.cluster.shard_count, served.cluster.replicas) == (2, 2)
        assert served.cluster.worker_mode == "processes"
        # The worker-side stub of every replica was handed that same object
        # together with the spec dumped from it.
        stubs = [
            layer
            for layer in stack_layers(cluster.router)
            if isinstance(layer, RemoteBackendStub)
        ]
        assert len(stubs) == 4
        assert all(stub.config is served for stub in stubs)
        spec = build_shard_spec(
            stack.backend.database, stack.backend.compiled, served, shard_id=0
        )
        assert spec.config is served
        assert spec.plan.spec is None
        shipped = spec.config.cluster
        assert (shipped.shard_count, shipped.replicas) == (2, 2)
        assert shipped.worker_mode == "processes"
    finally:
        cluster.close()
