"""Property-based tests for the KD partitioners (one split loop).

The rebalancer swaps a live cluster onto whatever partitioning
:class:`~repro.cluster.partitioner.LoadWeightedKDPartitioner` derives from
the recorded traffic, so the cover invariants must hold for *any* load
histogram — empty, degenerate, concentrated on one point, heavier than the
canvas, or partly outside it:

* exactly ``shard_count`` regions come back,
* the regions tile the canvas exactly (areas sum to the canvas area and
  their union is the canvas rectangle — no gaps),
* no two regions overlap in more than a shared edge (zero-area
  intersections only), and
* every region lies inside the canvas.

A second property checks the point of the exercise: with all the weight
inside one quadrant, the splits subdivide that quadrant instead of the
cold rest of the canvas.  A third holds the ``"kd"`` strategy — the
unit-weight case of the same loop, fed an object distribution — to the
same cover.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import LoadHistogram, LoadWeightedKDPartitioner
from repro.cluster.partitioner import BalancedKDPartitioner
from repro.storage.statistics import SpatialDistribution

finite_coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
weight = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
load_points = st.lists(st.tuples(finite_coord, finite_coord, weight), max_size=64)
canvas_dim = st.floats(
    min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


def build_histogram(points) -> LoadHistogram:
    histogram = LoadHistogram()
    for x, y, point_weight in points:
        histogram.observe(x, y, point_weight)
    return histogram


@settings(max_examples=200, deadline=None)
@given(
    points=load_points,
    width=canvas_dim,
    height=canvas_dim,
    shard_count=st.integers(min_value=1, max_value=16),
)
def test_any_histogram_yields_exact_gap_free_overlap_free_cover(
    points, width, height, shard_count
):
    histogram = build_histogram(points)
    partitioning = LoadWeightedKDPartitioner(shard_count).partition(
        "c", width, height, histogram
    )
    assert_exact_cover(partitioning, width, height, shard_count)


@settings(max_examples=100, deadline=None)
@given(
    points=load_points,
    width=canvas_dim,
    height=canvas_dim,
    shard_count=st.integers(min_value=1, max_value=16),
)
def test_any_distribution_yields_the_same_cover_from_the_kd_strategy(
    points, width, height, shard_count
):
    distribution = SpatialDistribution()
    for x, y, _ in points:
        distribution.observe(x, y)
    partitioning = BalancedKDPartitioner(shard_count).partition(
        "c", width, height, distribution
    )
    # Too small a sample falls back to the grid; the label says which ran.
    enough = len(points) >= 2 * shard_count
    assert partitioning.strategy == ("kd" if enough else "grid")
    assert_exact_cover(partitioning, width, height, shard_count)


def assert_exact_cover(partitioning, width, height, shard_count) -> None:
    regions = partitioning.regions

    assert len(regions) == shard_count
    assert [region.shard_id for region in regions] == list(range(shard_count))

    canvas_area = width * height
    total_area = sum(region.rect.area for region in regions)
    assert abs(total_area - canvas_area) <= canvas_area * 1e-9

    union = regions[0].rect
    for region in regions[1:]:
        union = union.union(region.rect)
    assert union.as_tuple() == (0.0, 0.0, width, height)

    for region in regions:
        rect = region.rect
        assert 0.0 <= rect.xmin <= rect.xmax <= width
        assert 0.0 <= rect.ymin <= rect.ymax <= height

    # Overlap-free: any two regions share at most an edge (zero area).
    for i, first in enumerate(regions):
        for second in regions[i + 1 :]:
            overlap = first.rect.intersection(second.rect)
            if overlap is not None:
                assert overlap.area == 0.0, (
                    f"regions {first.shard_id} and {second.shard_id} overlap: "
                    f"{overlap}"
                )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shard_count=st.integers(min_value=2, max_value=8),
)
def test_concentrated_load_splits_the_hot_quadrant(seed, shard_count):
    width = height = 1024.0
    histogram = LoadHistogram()
    # All the weight inside the top-left quadrant, pseudo-randomly spread.
    state = seed
    for _ in range(128):
        state = (state * 1103515245 + 12345) % (2**31)
        x = (state % 4096) / 4096.0 * (width / 2.0)
        state = (state * 1103515245 + 12345) % (2**31)
        y = (state % 4096) / 4096.0 * (height / 2.0)
        histogram.observe(x, y)

    partitioning = LoadWeightedKDPartitioner(shard_count).partition(
        "c", width, height, histogram
    )
    hot_regions = {
        partitioning.shard_for_point(x, y) for x, y, _ in histogram.points
    }
    # The hot quadrant must not stay a single shard's problem: the
    # weighted splits subdivide where the weight is.
    assert len(hot_regions) >= 2, (
        f"all hot load still lands on {hot_regions} with {shard_count} shards"
    )
