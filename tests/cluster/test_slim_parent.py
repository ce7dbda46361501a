"""Slim parent: process-worker clusters drop the parent-side shard copies.

With ``worker_mode="processes"`` every worker serves the shard backend it
inherits from the fork, so the parent-side shard databases only exist to
be forked.  Keeping them — on the shard handles or in the worker pool —
would hold every shard's rows in the parent beside the workers' copies for
the cluster's whole serving lifetime.  The assertions here count live
:class:`~repro.storage.database.Database` instances in the parent and
prove that building (or rebalancing) a process cluster adds **none** (only
the source backend's database stays), while serving, shard bookkeeping and
teardown keep working without the detached copies.
"""

from __future__ import annotations

import gc
import json

from repro.cluster import build_cluster
from repro.serving import RemoteBackendStub, stack_layers
from repro.telemetry import configure, get_tracer
from repro.storage.database import Database

from tests.cluster.conftest import parity_requests, payload_bytes


def _live_databases() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Database))


def _assert_serves_the_single_backends_rows(cluster, requests, expected) -> None:
    for data_request, want in zip(requests, expected):
        response = cluster.router.handle(data_request)
        assert sorted(obj["tuple_id"] for obj in response.objects) == sorted(
            obj["tuple_id"] for obj in json.loads(want.decode("utf-8"))
        )


def test_process_cluster_holds_no_parent_side_shard_databases(usmap_parity_stack):
    """The shard databases the workers were forked from do not outlive the
    build: the shard handles detach them and the worker pool keeps no
    backend."""
    stack = usmap_parity_stack
    requests = parity_requests(stack)[:8]
    expected = [payload_bytes(stack.backend.handle(r)) for r in requests]

    databases_before = _live_databases()
    cluster = build_cluster(
        stack.backend,
        shard_count=2,
        worker_mode="processes",
        tile_sizes=stack.tile_sizes,
    )
    try:
        # The memory win: the shard databases the workers were forked
        # from are gone from the parent — zero net Database objects.
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
        _assert_serves_the_single_backends_rows(cluster, requests, expected)
        description = cluster.describe()
        assert len(description["shards"]) == 2
        assert all(entry["rows_by_table"] for entry in description["shards"])
    finally:
        cluster.close()


def test_process_rebalance_holds_no_parent_side_shard_databases(usmap_parity_stack):
    """A rebalance forks the next generation's workers and drops its shard
    databases the same way: neither generation's copies stay in the
    parent once the swap is done."""
    stack = usmap_parity_stack
    requests = parity_requests(stack)[:8]
    expected = [payload_bytes(stack.backend.handle(r)) for r in requests]

    databases_before = _live_databases()
    cluster = build_cluster(
        stack.backend,
        shard_count=2,
        worker_mode="processes",
        tile_sizes=stack.tile_sizes,
    )
    try:
        assert cluster.rebalancer.rebalance(3).swapped
        assert _live_databases() == databases_before, (
            "process-worker rebalance leaked parent-side shard databases"
        )
        assert len(cluster.shards) == 3
        for shard in cluster.shards:
            assert shard.database is None
            assert shard.backend is None
            assert shard.total_rows > 0
        cluster.router.cache.clear()
        _assert_serves_the_single_backends_rows(cluster, requests, expected)
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


def test_workers_serve_the_configuration_being_served(usmap_parity_stack):
    """A process build stands every worker up from the generation's one
    effective configuration — the overridden one the router reports, not
    the source backend's: tracing is off in the source's config and on in
    the served one, and every shard call comes back with the worker's own
    ``execute`` span."""
    stack = usmap_parity_stack
    base = stack.backend.config
    assert (base.cluster.shard_count, base.cluster.replicas) != (2, 2)
    assert not base.telemetry.enabled
    cluster = build_cluster(
        stack.backend,
        shard_count=2,
        replicas=2,
        worker_mode="processes",
        telemetry=True,
    )
    try:
        served = cluster.router.config
        assert (served.cluster.shard_count, served.cluster.replicas) == (2, 2)
        assert served.cluster.worker_mode == "processes"
        assert served.telemetry.enabled
        # Every replica's stub was handed that same object.
        stubs = [
            layer
            for layer in stack_layers(cluster.router)
            if isinstance(layer, RemoteBackendStub)
        ]
        assert len(stubs) == 4
        assert all(stub.config is served for stub in stubs)
        for data_request in parity_requests(stack)[:4]:
            cluster.router.handle(data_request)
        spans = [span for trace in get_tracer().traces() for span in trace["spans"]]
        rpcs = [span for span in spans if span["name"] == "rpc"]
        assert rpcs
        # The worker traced its side: one ``execute`` span under every rpc.
        executes = {span["parent_id"] for span in spans if span["name"] == "execute"}
        assert {span["span_id"] for span in rpcs} <= executes
    finally:
        cluster.close()
        configure(enabled=False)
