"""The shard build routes rows as ``Partitioning.shards_for_rect`` does.

``ShardedIndexer`` reads each referenced region's bounds once per table and
tests every row against them.  Each shard's copy of a table must hold
exactly the rows a per-row ``shards_for_rect`` reference gives it, in
source order: a box that only touches a region's edge or corner goes to
that region's shard too, a box two canvases route to one shard is stored
there once, and a NULL bbox goes nowhere.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.partitioner import make_partitioner
from repro.cluster.sharded import ShardedIndexer
from repro.compiler import compile_application
from repro.config import ClusterConfig, KyrixConfig
from repro.core import App, Canvas, ColumnPlacement, Jump, Layer, Transform, dot_renderer
from repro.storage.database import Database
from repro.storage.rtree import Rect
from repro.storage.statistics import SpatialDistribution

WIDTH, HEIGHT = 1000.0, 600.0
SHARDS = 4
CONFIG = KyrixConfig(
    viewport_width=200, viewport_height=200, cluster=ClusterConfig(shard_count=SHARDS)
)


def two_canvas_app(canvas_ids: list[str]) -> App:
    """One separable dots layer over the ``pts`` table on each canvas."""
    app = App(name="routes", config=CONFIG)
    for canvas_id in canvas_ids:
        canvas = Canvas(canvas_id=canvas_id, width=WIDTH, height=HEIGHT)
        canvas.add_transform(
            Transform(
                transform_id=f"{canvas_id}_t",
                query="SELECT tuple_id, x, y, bbox FROM pts",
                columns=("tuple_id", "x", "y", "bbox"),
                separable=True,
                x_column="x",
                y_column="y",
            )
        )
        layer = Layer(transform_id=f"{canvas_id}_t", static=False)
        layer.add_placement(ColumnPlacement(x_column="x", y_column="y", width=1.0, height=1.0))
        layer.add_rendering_func(dot_renderer("x", "y"))
        canvas.add_layer(layer)
        app.add_canvas(canvas)
    for source, target in zip(canvas_ids, canvas_ids[1:]):
        app.add_jump(Jump(source, target, "semantic_zoom"))
    app.set_initial_canvas(canvas_ids[0], 0.0, 0.0)
    return app


def partitionings_for(strategies: dict[str, str]):
    rng = random.Random(3)
    skewed = SpatialDistribution()
    for _ in range(400):  # mass in the left third: the KD splits move off the grid's
        skewed.observe(rng.uniform(0, WIDTH / 3), rng.uniform(0, HEIGHT))
    return {
        canvas_id: make_partitioner(strategy, SHARDS).partition(
            canvas_id, WIDTH, HEIGHT, skewed if strategy == "kd" else None
        )
        for canvas_id, strategy in strategies.items()
    }


def boxes_touching(partitionings) -> list[tuple[float, float, float, float] | None]:
    """Boxes that meet each region only on its edges and corners, from
    outside and from inside, plus random ones, off-canvas ones and NULLs."""
    boxes: list[tuple[float, float, float, float] | None] = [None]
    for partitioning in partitionings.values():
        for region in partitioning.regions:
            x0, y0, x1, y1 = region.rect.as_tuple()
            mid_y = (y0 + y1) / 2
            mid_x = (x0 + x1) / 2
            boxes += [
                (x1, mid_y, x1 + 5.0, mid_y + 5.0),  # touches the right edge from outside
                (x0 - 5.0, mid_y, x0, mid_y + 5.0),  # the left edge
                (mid_x, y1, mid_x + 5.0, y1 + 5.0),  # the bottom edge
                (mid_x, y0 - 5.0, mid_x + 5.0, y0),  # the top edge
                (x1, y1, x1 + 3.0, y1 + 3.0),  # a corner
                (x0 - 3.0, y0 - 3.0, x0, y0),
                (x1, mid_y, x1, mid_y),  # a point on an edge
            ]
    rng = random.Random(11)
    for _ in range(400):
        x, y = rng.uniform(-50, WIDTH + 50), rng.uniform(-50, HEIGHT + 50)
        boxes.append((x, y, x + rng.uniform(0, 80), y + rng.uniform(0, 80)))
    boxes += [(-100.0, -100.0, -90.0, -90.0), (WIDTH + 1, 0.0, WIDTH + 2, 1.0), None]
    return boxes


def reference_routes(rows, partitionings) -> list[list[tuple]]:
    per_shard: list[list[tuple]] = [[] for _ in range(SHARDS)]
    for row in rows:
        if row[3] is None:
            continue
        rect = Rect.from_tuple(row[3])
        targets = set()
        for partitioning in partitionings:
            targets.update(partitioning.shards_for_rect(rect))
        for shard_id in targets:
            per_shard[shard_id].append(row)
    return per_shard


@pytest.mark.parametrize(
    "strategies",
    [{"a": "grid"}, {"a": "kd"}, {"a": "grid", "b": "kd"}, {"a": "grid", "b": "grid"}],
    ids=["grid", "kd", "grid+kd", "grid-twice"],
)
def test_each_shard_holds_the_rows_shards_for_rect_routes_to_it(strategies):
    partitionings = partitionings_for(strategies)
    database = Database()
    source = database.create_table(
        "pts", [("tuple_id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox")]
    )
    source.bulk_load(
        (i, 0.0, 0.0, box) for i, box in enumerate(boxes_touching(partitionings))
    )
    compiled = compile_application(two_canvas_app(list(strategies)))
    shards, _ = ShardedIndexer(database, compiled, CONFIG).build_shards(partitionings)

    expected = reference_routes(source.scan_rows(), list(partitionings.values()))
    assert [list(shard.database.table("pts").scan_rows()) for shard in shards] == expected
    assert [shard.rows_by_table["pts"] for shard in shards] == list(map(len, expected))
    routed = [row[0] for rows in expected for row in rows]
    assert len(routed) > len(set(routed))  # boundary boxes are replicated
