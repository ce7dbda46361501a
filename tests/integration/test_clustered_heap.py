"""Clustered heaps: a box query's rows come in page runs, in every topology.

Every table a spatial layer is served from is clustered on its R-tree
(``Table.cluster``, PostgreSQL's ``CLUSTER``): a placement table after it is
materialised, a separable raw table when its spatial index is ensured, and
every shard's copy on the shard's own R-tree.  Process workers restore their
shard from a dump in heap order, so they inherit it.  A box query then takes
at most ``MAX_CHECKOUTS_PER_ROW`` buffer-pool checkouts (pager hits plus
misses) per fetched row -- about one per page run.  A heap in load order,
random in space, took one per row.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.apps import build_dots_backend, default_config
from repro.cluster import build_cluster
from repro.datagen.synthetic import tiny_spec
from repro.net.protocol import DataRequest
from repro.server.backend import KyrixBackend
from repro.serving import build_service, unwrap
from repro.serving.worker import _restore_database, build_shard_spec, database_checksum

MAX_CHECKOUTS_PER_ROW = 0.1


@pytest.fixture(scope="module", params=["separable", "placement"])
def stack(request):
    spec = tiny_spec("uniform", num_points=20_000, seed=3)
    return build_dots_backend(
        spec,
        config=default_config(viewport=1024),
        precompute_placement=request.param == "placement",
    )


def box_requests(stack, count: int = 24) -> list[DataRequest]:
    rng = random.Random(26)
    spec = stack.spec
    requests = []
    for _ in range(count):
        x = rng.uniform(0, spec.canvas_width - 1024)
        y = rng.uniform(0, spec.canvas_height - 1024)
        requests.append(
            DataRequest("dots", "dots", 0, "box", xmin=x, ymin=y, xmax=x + 1024, ymax=y + 1024)
        )
    return requests


def checkouts_per_row(backends: list[KyrixBackend], run) -> float:
    """Pager checkouts over rows fetched, across ``backends``, while ``run()`` runs."""

    def totals() -> tuple[int, int]:
        pagers = [backend.database.pager_stats for backend in backends]
        return (
            sum(pager.hits + pager.misses for pager in pagers),
            sum(backend.stats.objects_returned for backend in backends),
        )

    checkouts, rows = totals()
    run()
    after_checkouts, after_rows = totals()
    assert after_rows - rows > 1000  # enough rows for the ratio to mean something
    return (after_checkouts - checkouts) / (after_rows - rows)


def test_single_backend_box_queries_read_page_runs(stack):
    requests = box_requests(stack)
    ratio = checkouts_per_row([stack.backend], lambda: [stack.backend.handle(r) for r in requests])
    assert ratio <= MAX_CHECKOUTS_PER_ROW


def test_thread_shards_are_clustered_on_their_own_rtrees(stack):
    cluster = build_cluster(stack.backend, shard_count=2)
    try:
        backends = [shard.backend for shard in cluster.shards]
        for shard in cluster.shards:
            for table in map(shard.database.table, shard.database.table_names):
                assert table.clustered_on == stack.database.table(table.name).clustered_on
        requests = box_requests(stack)
        ratio = checkouts_per_row(backends, lambda: [cluster.router.handle(r) for r in requests])
        assert ratio <= MAX_CHECKOUTS_PER_ROW
    finally:
        cluster.close()


def test_process_workers_restore_the_clustered_heap(stack):
    """A worker rebuilds its shard with ``_restore_database`` from the dump
    the parent ships: the same heap, row for row (the checksum every real
    worker checks its rebuild against before it reports ready), so the same
    page runs."""
    threads = build_cluster(stack.backend, shard_count=2)
    try:
        config, compiled = threads.router.config, stack.backend.compiled
        parent_checksums = [database_checksum(shard.database) for shard in threads.shards]
        specs = [
            build_shard_spec(shard.database, compiled, config, shard_id=shard.shard_id)
            for shard in threads.shards
        ]
    finally:
        threads.close()
    assert [spec.checksum() for spec in specs] == parent_checksums
    restored = [_restore_database(spec.tables, config) for spec in specs]
    assert [database_checksum(database) for database in restored] == parent_checksums
    unsharded = stack.backend.config  # each backend serves its restored shard alone
    backends = [
        unwrap(build_service(unsharded, database=database, compiled=compiled, precompute=False))
        for database in restored
    ]
    assert [backend.database for backend in backends] == restored
    requests = box_requests(stack)
    ratio = checkouts_per_row(backends, lambda: [b.handle(r) for b in backends for r in requests])
    assert ratio <= MAX_CHECKOUTS_PER_ROW

    # Real workers run the same rebuild and refuse to start on a mismatch,
    # so a process cluster that builds at all rebuilt every shard exactly.
    processes = build_cluster(stack.backend, shard_count=2, worker_mode="processes")
    try:
        assert {handle.shard_id for handle in processes.worker_pool.handles} == {0, 1}
    finally:
        processes.close()
