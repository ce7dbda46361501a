"""Correctness parity: a sharded cluster answers exactly like one backend.

The acceptance bar for the cluster subsystem: for every request shape (tile
and dynamic box) and both database designs (spatial and mapping), a cluster
at 2 and 4 shards must return exactly the same tuple set as the unsharded
backend — boundary-straddling objects deduplicated, nothing lost — on both
the usmap and EEG applications, with both partitioning strategies.
"""

from __future__ import annotations

import pytest

from repro.bench.apps import build_dots_backend, default_config
from repro.cluster import build_cluster
from repro.datagen.synthetic import tiny_spec
from repro.net.protocol import DataRequest, DataResponse
from repro.telemetry import configure, get_tracer

from tests.cluster.conftest import parity_requests


def _sorted_objects(response):
    return sorted(response.objects, key=lambda obj: obj["tuple_id"])


@pytest.mark.parametrize("stack_fixture", ["usmap_parity_stack", "eeg_parity_stack"])
@pytest.mark.parametrize("shard_count", [2, 4])
@pytest.mark.parametrize("strategy", ["grid", "kd"])
def test_cluster_matches_single_backend(request, stack_fixture, shard_count, strategy):
    stack = request.getfixturevalue(stack_fixture)
    cluster = build_cluster(
        stack.backend,
        shard_count=shard_count,
        strategy=strategy,
        tile_sizes=stack.tile_sizes,
    )
    assert cluster.shard_count == shard_count

    fetched_anything = False
    for data_request in parity_requests(stack):
        single = stack.backend.handle(data_request)
        routed = cluster.router.handle(data_request)
        assert _sorted_objects(routed) == _sorted_objects(single), (
            f"parity violated for {data_request}"
        )
        fetched_anything = fetched_anything or bool(single.objects)
    assert fetched_anything, "parity suite never fetched any objects"


def test_sharding_distributes_rows(usmap_parity_stack):
    """With several shards, no single shard holds the whole dataset."""
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=4, strategy="grid")
    county_table = stack.backend.compiled.layer_plan("countymap", 0).placement_table
    source_rows = stack.backend.database.table(county_table).row_count
    per_shard = [shard.rows_by_table[county_table] for shard in cluster.shards]
    assert all(rows < source_rows for rows in per_shard)
    # Replication only happens at boundaries: the total is close to source.
    assert sum(per_shard) >= source_rows


def test_scatter_only_touches_overlapping_shards(usmap_parity_stack):
    stack = usmap_parity_stack
    cluster = build_cluster(stack.backend, shard_count=4, strategy="grid")
    partitioning = cluster.partitionings["statemap"]
    region = partitioning.regions[0].rect
    data_request = DataRequest(
        canvas_id="statemap",
        layer_index=0,
        granularity="box",
        xmin=region.xmin + 1.0,
        ymin=region.ymin + 1.0,
        xmax=region.xmin + 10.0,
        ymax=region.ymin + 10.0,
    )
    cluster.router.handle(data_request)
    assert cluster.router.stats.fanout == {1: 1}


def test_router_cache_and_per_shard_timers(eeg_parity_stack):
    stack = eeg_parity_stack
    cluster = build_cluster(stack.backend, shard_count=2, strategy="grid", telemetry=True)
    canvas_id, layer_index, _ = stack.canvases[0]
    plan = stack.backend.compiled.canvas_plan(canvas_id)
    data_request = DataRequest(
        canvas_id=canvas_id,
        layer_index=layer_index,
        granularity="box",
        xmin=0.0,
        ymin=0.0,
        xmax=plan.width,
        ymax=plan.height,
    )
    try:
        first = cluster.router.handle(data_request)
        (trace,) = get_tracer().traces()
    finally:
        configure(enabled=False)
    assert first.from_cache is False
    assert cluster.router.stats.fanout == {2: 1}
    # One ``shard`` span per shard call; the critical path is the slowest
    # shard plus merge overhead.
    shard_spans = [span for span in trace["spans"] if span["name"] == "shard"]
    assert sorted(span["attributes"]["shard_id"] for span in shard_spans) == [0, 1]
    assert first.query_ms >= max(span["duration_ms"] for span in shard_spans)

    second = cluster.router.handle(data_request)
    assert second.from_cache is True
    assert second.objects == first.objects
    assert cluster.router.cache.stats.hits == 1


def test_cluster_enabled_config_builds_router():
    spec = tiny_spec("uniform", num_points=2_000, seed=3)
    config = default_config(viewport=512)
    config.cluster.enabled = True
    config.cluster.shard_count = 2
    stack = build_dots_backend(spec, config=config)
    assert stack.cluster is not None
    assert stack.cluster.shard_count == 2
    assert stack.service is stack.cluster.router

    # A replay drives the router, not the bypassed single backend.
    from repro.bench.experiments import replay
    from repro.server.schemes import dbox_scheme

    result = replay(stack, dbox_scheme(), [(0.0, 0.0), (512.0, 0.0), (1024.0, 256.0)])
    assert result.steps == 2
    assert stack.cluster.router.stats.scatter_gathers > 0
    assert stack.backend.stats.queries_issued == 0  # single backend never queried

    plain = build_dots_backend(spec, config=default_config(viewport=512))
    assert plain.cluster is None
    assert plain.service.inner is plain.backend


def test_response_json_roundtrip_preserves_gather_fields():
    base = DataRequest(
        canvas_id="c", layer_index=0, granularity="box",
        xmin=0.0, ymin=0.0, xmax=1.0, ymax=1.0,
    )
    response = DataResponse(
        request=base,
        objects=[{"tuple_id": 1}],
        query_ms=2.5,
        queries_issued=2,
        coalesced=True,
    )
    decoded = DataResponse.from_json(response.to_json())
    assert decoded.queries_issued == 2
    assert decoded.coalesced is True
    assert decoded.request == base
