"""Clustered heaps: a box query's rows come in page runs, in every topology.

Every table a spatial layer is served from is clustered on its R-tree
(``Table.cluster``, PostgreSQL's ``CLUSTER``): a placement table after it is
materialised, a separable raw table when its spatial index is ensured, and
every shard's copy on the shard's own R-tree.  Process workers serve the
shard they inherit from the fork, heap pages and all.  A box query then takes
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

from tests.cluster.conftest import payload_bytes

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
            DataRequest("dots", 0, "box", xmin=x, ymin=y, xmax=x + 1024, ymax=y + 1024)
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


def test_process_workers_serve_the_clustered_heap(stack):
    """A worker serves the shard it was forked with, heap pages and all: the
    rows of every box query come back in the same clustered order, so the
    payloads equal the thread shards' byte for byte."""
    requests = box_requests(stack)
    threads = build_cluster(stack.backend, shard_count=2)
    try:
        expected = [payload_bytes(threads.router.handle(r)) for r in requests]
    finally:
        threads.close()
    assert sum(len(payload) for payload in expected) > 1000
    processes = build_cluster(stack.backend, shard_count=2, worker_mode="processes")
    try:
        assert {handle.shard_id for handle in processes.worker_pool.handles} == {0, 1}
        assert [payload_bytes(processes.router.handle(r)) for r in requests] == expected
    finally:
        processes.close()
