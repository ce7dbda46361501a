"""Unit tests for the spatial partitioners, boundary dedup and coalescer."""

from __future__ import annotations

import threading
import time
from dataclasses import asdict

import pytest

from repro.bench.apps import default_config
from repro.cluster import (
    BalancedKDPartitioner,
    GridPartitioner,
    LoadHistogram,
    LoadWeightedKDPartitioner,
    RequestCoalescer,
    build_cluster,
    make_partitioner,
)
from repro.compiler import compile_application
from repro.core import App, Canvas, ColumnPlacement, Layer, Transform, dot_renderer
from repro.errors import KyrixError
from repro.net.protocol import DataRequest
from repro.server.backend import KyrixBackend
from repro.serving import build_service, unwrap
from repro.storage.database import Database
from repro.storage.rtree import Rect
from repro.storage.statistics import SpatialDistribution


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------


def _assert_exact_cover(partitioning, width, height):
    total_area = sum(region.rect.area for region in partitioning.regions)
    assert total_area == pytest.approx(width * height)
    union = partitioning.regions[0].rect
    for region in partitioning.regions[1:]:
        union = union.union(region.rect)
    assert union.as_tuple() == (0.0, 0.0, width, height)


@pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
def test_grid_partitioner_covers_canvas(shard_count):
    partitioning = GridPartitioner(shard_count).partition("c", 1000.0, 500.0)
    assert partitioning.shard_count == shard_count
    _assert_exact_cover(partitioning, 1000.0, 500.0)


def test_grid_prefers_cells_matching_canvas_aspect():
    # A wide canvas should be cut into columns, not stacked rows.
    partitioning = GridPartitioner(4).partition("c", 4000.0, 1000.0)
    assert all(region.rect.height == 1000.0 for region in partitioning.regions)


def test_shards_for_rect_straddling_boundary_returns_both():
    partitioning = GridPartitioner(2).partition("c", 100.0, 100.0)
    straddler = Rect(40.0, 45.0, 60.0, 55.0)
    assert len(partitioning.shards_for_rect(straddler)) == 2
    inside = Rect(10.0, 10.0, 20.0, 20.0)
    assert len(partitioning.shards_for_rect(inside)) == 1


def test_shard_for_point_is_deterministic_on_boundary():
    partitioning = GridPartitioner(2).partition("c", 100.0, 100.0)
    assert partitioning.shard_for_point(50.0, 50.0) == 0
    with pytest.raises(KyrixError):
        partitioning.shard_for_point(500.0, 50.0)


def test_kd_partitioner_balances_skewed_points():
    distribution = SpatialDistribution()
    # 90% of the mass in the left tenth of the canvas, the rest spread out.
    for i in range(900):
        distribution.observe(float(i % 100), float(i % 97))
    for i in range(100):
        distribution.observe(100.0 + i * 9.0, float(i % 89) * 10.0)
    partitioning = BalancedKDPartitioner(4).partition(
        "c", 1000.0, 1000.0, distribution
    )
    assert partitioning.shard_count == 4
    _assert_exact_cover(partitioning, 1000.0, 1000.0)
    counts = [
        sum(
            1
            for x, y in distribution.points
            if region.rect.contains_point(x, y)
        )
        for region in partitioning.regions
    ]
    # Boundary points are counted in every touching region, so the sum can
    # slightly exceed the sample; balance is what matters.
    assert max(counts) <= 3 * (len(distribution.points) // 4)
    assert min(counts) >= len(distribution.points) // 16


def test_kd_falls_back_to_grid_without_distribution():
    partitioning = BalancedKDPartitioner(4).partition("c", 800.0, 800.0, None)
    assert partitioning.strategy == "grid"
    _assert_exact_cover(partitioning, 800.0, 800.0)


def test_make_partitioner_rejects_unknown_strategy():
    assert isinstance(make_partitioner("grid", 2), GridPartitioner)
    assert isinstance(make_partitioner("kd", 2), BalancedKDPartitioner)
    with pytest.raises(KyrixError):
        make_partitioner("hash", 2)


# ---------------------------------------------------------------------------
# Partitioning edge cases (degenerate canvases, shared edges, load splits)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width,height", [(0.0, 0.0), (0.0, 400.0), (640.0, 0.0)])
@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_degenerate_canvases_still_cover_exactly(width, height, shard_count):
    """A zero-area canvas (empty app, collapsed axis) must not crash or gap."""
    for partitioning in (
        GridPartitioner(shard_count).partition("c", width, height),
        BalancedKDPartitioner(shard_count).partition("c", width, height, None),
        LoadWeightedKDPartitioner(shard_count).partition(
            "c", width, height, LoadHistogram()
        ),
    ):
        assert partitioning.shard_count == shard_count
        union = partitioning.regions[0].rect
        for region in partitioning.regions[1:]:
            union = union.union(region.rect)
        assert union.as_tuple() == (0.0, 0.0, width, height)
        assert sum(region.rect.area for region in partitioning.regions) == 0.0
        # Every canvas point (there is exactly one when both axes collapse)
        # still resolves to a deterministic shard.
        assert partitioning.shard_for_point(0.0, 0.0) == 0


def test_shards_for_rect_on_shared_edges():
    """Region edges are shared: queries exactly on them scatter to all
    touching shards, and zero-area query rects behave like their boundary."""
    partitioning = GridPartitioner(4).partition("c", 100.0, 100.0)
    # The full vertical boundary line (zero width) touches both columns.
    vertical_edge = Rect(50.0, 0.0, 50.0, 100.0)
    assert partitioning.shards_for_rect(vertical_edge) == [0, 1, 2, 3]
    # The centre point (zero area) touches all four regions.
    center_point = Rect(50.0, 50.0, 50.0, 50.0)
    assert partitioning.shards_for_rect(center_point) == [0, 1, 2, 3]
    # A corner point touches exactly one region.
    corner = Rect(0.0, 0.0, 0.0, 0.0)
    assert partitioning.shards_for_rect(corner) == [0]
    # A rect that *reaches* the shared boundary scatters to every shard
    # touching it (boundary objects are replicated, so any of them can
    # answer; dedup handles the rest)...
    flush = Rect(0.0, 0.0, 50.0, 50.0)
    assert partitioning.shards_for_rect(flush) == [0, 1, 2, 3]
    # ... while stopping short of the boundary stays single-shard.
    inside = Rect(0.0, 0.0, 49.0, 49.0)
    assert partitioning.shards_for_rect(inside) == [0]


def test_load_weighted_partitioner_splits_where_the_weight_is():
    histogram = LoadHistogram()
    # All observed traffic inside the left tenth of a wide canvas.
    for i in range(100):
        histogram.observe(float(i), float(i % 37) * 2.0)
    partitioning = LoadWeightedKDPartitioner(4).partition(
        "c", 1000.0, 100.0, histogram
    )
    assert partitioning.shard_count == 4
    _assert_exact_cover(partitioning, 1000.0, 100.0)
    hot_shards = {
        partitioning.shard_for_point(x, y) for x, y, _ in histogram.points
    }
    assert len(hot_shards) >= 3, (
        f"hot traffic should spread over most shards, landed on {hot_shards}"
    )


def test_load_weighted_partitioner_clamps_out_of_canvas_samples():
    histogram = LoadHistogram()
    histogram.observe(-500.0, 50.0)
    histogram.observe(1500.0, -50.0)
    histogram.observe(200.0, 200.0, weight=3.0)
    partitioning = LoadWeightedKDPartitioner(2).partition(
        "c", 1000.0, 100.0, histogram
    )
    _assert_exact_cover(partitioning, 1000.0, 100.0)


def test_load_weighted_partitioner_without_signal_falls_back_to_midpoints():
    partitioning = LoadWeightedKDPartitioner(4).partition("c", 800.0, 800.0, None)
    _assert_exact_cover(partitioning, 800.0, 800.0)
    # Midpoint splits of a square: four equal quadrants.
    assert sorted(region.rect.area for region in partitioning.regions) == (
        [160_000.0] * 4
    )


def test_load_histogram_ring_buffer_drops_oldest():
    histogram = LoadHistogram(limit=3)
    for i in range(5):
        histogram.observe(float(i), 0.0)
    assert len(histogram) == 3
    assert [x for x, _, _ in histogram.points] == [2.0, 3.0, 4.0]
    assert histogram.total_weight() == 3.0
    # Zero/negative weights are ignored outright.
    histogram.observe(9.0, 9.0, weight=0.0)
    assert len(histogram) == 3
    clone = histogram.copy()
    clone.observe(7.0, 7.0)
    assert len(histogram) == 3 and len(clone) == 3  # bounded copy, detached


def test_load_weighted_partitioner_rejects_bad_shard_count():
    with pytest.raises(KyrixError):
        LoadWeightedKDPartitioner(0)


# ---------------------------------------------------------------------------
# Boundary replication + gather-time dedup
# ---------------------------------------------------------------------------


def build_straddler_backend() -> KyrixBackend:
    """Three objects on a 100x100 canvas; one straddles the shard boundary."""
    config = default_config(viewport=100)
    database = Database(config.storage)
    table = database.create_table(
        "pts",
        [
            ("tuple_id", "integer"), ("x", "float"), ("y", "float"),
            ("w", "float"), ("h", "float"), ("bbox", "bbox"),
        ],
    )
    rows = [
        (0, 25.0, 50.0, 2.0, 2.0, (24.0, 49.0, 26.0, 51.0)),
        (1, 75.0, 50.0, 2.0, 2.0, (74.0, 49.0, 76.0, 51.0)),
        (2, 50.0, 50.0, 20.0, 10.0, (40.0, 45.0, 60.0, 55.0)),  # straddler
    ]
    table.bulk_load(rows)

    app = App(name="straddle", config=config)
    canvas = Canvas(canvas_id="main", width=100.0, height=100.0)
    app.add_canvas(canvas)
    canvas.add_transform(
        Transform(
            transform_id="t",
            query="SELECT tuple_id, x, y, w, h FROM pts",
            columns=("tuple_id", "x", "y", "w", "h"),
        )
    )
    layer = Layer("t", False)
    canvas.add_layer(layer)
    layer.add_placement(ColumnPlacement(x_column="x", y_column="y", width="w", height="h"))
    layer.add_rendering_func(dot_renderer("x", "y"))
    app.set_initial_canvas("main", 0, 0)
    compiled = compile_application(app)
    return unwrap(
        build_service(config, database=database, compiled=compiled, tile_sizes=(50,))
    )


def test_straddling_object_replicated_but_deduplicated():
    backend = build_straddler_backend()
    cluster = build_cluster(backend, shard_count=2, strategy="grid", tile_sizes=(50,))
    place_table = backend.compiled.layer_plan("main", 0).placement_table

    # Precompute-time routing replicated the straddler into both shards.
    per_shard = [shard.rows_by_table[place_table] for shard in cluster.shards]
    assert sum(per_shard) == 4  # 3 objects + 1 boundary replica
    assert per_shard == [2, 2]

    # ... but a gathered query returns it exactly once.
    box = DataRequest(
        canvas_id="main", layer_index=0, granularity="box",
        xmin=0.0, ymin=0.0, xmax=100.0, ymax=100.0,
    )
    response = cluster.router.handle(box)
    assert sorted(obj["tuple_id"] for obj in response.objects) == [0, 1, 2]
    assert cluster.router.stats.duplicates_removed == 1

    # Same through the mapping design: each of the two 50px tile columns
    # holding the straddler returns it once.
    for tile_id, expected in ((2, [0, 2]), (3, [1, 2])):
        tile = DataRequest(
            canvas_id="main", layer_index=0,
            granularity="tile", design="mapping", tile_id=tile_id, tile_size=50,
        )
        routed = cluster.router.handle(tile)
        assert sorted(obj["tuple_id"] for obj in routed.objects) == expected


# ---------------------------------------------------------------------------
# Request coalescing
# ---------------------------------------------------------------------------


def test_coalescer_runs_leader_once_for_concurrent_followers():
    coalescer = RequestCoalescer()
    compute_calls = []
    release = threading.Event()

    def compute():
        compute_calls.append(threading.get_ident())
        release.wait(timeout=5.0)
        return "payload"

    results: list[tuple[str, bool]] = []

    def worker():
        results.append(coalescer.coalesce("key", compute))

    deadline = time.monotonic() + 5.0
    threads = [threading.Thread(target=worker) for _ in range(4)]
    threads[0].start()
    while not compute_calls and time.monotonic() < deadline:
        time.sleep(0.001)  # leader is inside compute()
    assert compute_calls, "leader never entered compute()"
    for thread in threads[1:]:
        thread.start()
    while coalescer.stats.followers < 3 and time.monotonic() < deadline:
        time.sleep(0.001)  # all followers are queued
    assert coalescer.stats.followers == 3, "followers never coalesced"
    release.set()
    for thread in threads:
        thread.join(timeout=5.0)

    assert len(compute_calls) == 1
    assert sorted(follower for _, follower in results) == [False, True, True, True]
    assert all(value == "payload" for value, _ in results)
    # Two counters, nothing derived: the share coalesced is 3 of 4.
    assert asdict(coalescer.stats) == {"leaders": 1, "followers": 3}


def test_coalescer_sequential_requests_each_lead():
    coalescer = RequestCoalescer()
    for _ in range(3):
        value, follower = coalescer.coalesce("key", lambda: 42)
        assert value == 42
        assert follower is False
    assert coalescer.stats.leaders == 3
    assert coalescer.stats.followers == 0


def test_coalescer_propagates_leader_errors():
    coalescer = RequestCoalescer()

    def explode():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        coalescer.coalesce("key", explode)
    # The key is released: the next request leads again.
    value, follower = coalescer.coalesce("key", lambda: 1)
    assert (value, follower) == (1, False)
