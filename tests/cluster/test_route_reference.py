"""The shard build routes rows as ``Partitioning.shards_for_rect`` does,
and its copies equal a build through the public row path.

``ShardedIndexer`` reads each referenced table's bbox column and each
region's bounds once, and tests every row against them.  Each shard's copy
of a table must hold exactly the rows a per-row ``shards_for_rect``
reference gives it, in source order: a box that only touches a region's
edge or corner goes to that region's shard too, a box two canvases route
to one shard is stored there once, a NULL bbox goes nowhere, and a table
without a bbox column goes everywhere.

The copy is the source's stored records, nothing decoded or encoded; it
must leave each shard as ``bulk_load`` of the routed rows, ``create_index``
per source index and ``cluster`` on the source's clustering index would:
the same rows in the same heap order, every index's entries at the same
row positions, the same ``clustered_on`` and ``rows_by_table``.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.partitioner import make_partitioner
from repro.cluster.sharded import ShardedIndexer
from repro.compiler import compile_application
from repro.config import ClusterConfig, KyrixConfig
from repro.core import App, Canvas, ColumnPlacement, Jump, Layer, Transform, dot_renderer
from repro.errors import DuplicateKeyError, RecordNotFoundError, SchemaError
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


def reference_routes(rows, partitionings, bbox_position: int = 3) -> list[list[tuple]]:
    per_shard: list[list[tuple]] = [[] for _ in range(SHARDS)]
    for row in rows:
        if row[bbox_position] is None:
            continue
        rect = Rect.from_tuple(row[bbox_position])
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


# -- the copy equals a build through the row path ------------------------------------


def with_side_layer(app: App) -> App:
    """A second layer on the first canvas, over ``side``: a table without
    a bbox column, which every shard holds whole."""
    canvas = app.canvas(next(iter(app.canvases)))
    canvas.add_transform(
        Transform(
            transform_id="side_t",
            query="SELECT tuple_id, x, y FROM side",
            columns=("tuple_id", "x", "y"),
            separable=True,
            x_column="x",
            y_column="y",
        )
    )
    layer = Layer(transform_id="side_t", static=False)
    layer.add_placement(ColumnPlacement(x_column="x", y_column="y", width=1.0, height=1.0))
    layer.add_rendering_func(dot_renderer("x", "y"))
    canvas.add_layer(layer)
    return app


def table_state(table) -> dict:
    """Rows in heap order, and every index's entries as row positions."""
    scanned = list(table.scan())
    position = {rid: i for i, (rid, _) in enumerate(scanned)}
    indexes = {}
    for name, info in table.indexes.items():
        keys = list(info.index.keys()) if info.kind == "btree" else None
        positions = [position[rid] for rid in info.index.rids()]
        indexes[name] = (info.column, info.kind, info.unique, keys, positions)
    return {"rows": [row for _, row in scanned], "indexes": indexes, "clustered_on": table.clustered_on}


def row_path_copy(source, rows):
    """The shard copy built through the public row path."""
    table = Database().create_table(source.name, source.schema)
    table.bulk_load(rows)
    for info in source.indexes.values():
        table.create_index(info.name, info.column, info.kind, unique=info.unique)
    if source.clustered_on is not None:
        table.cluster(source.clustered_on)
    return table


SOURCES = {
    # Today's route source: no index, no clustering.
    "plain": ([("tuple_id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox")], False),
    # Indexed as a placement table is, and clustered on its R-tree.
    "clustered": ([("tuple_id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox")], True),
    # A TEXT column: every record is decoded the walking way.
    "text": (
        [("tuple_id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox"), ("label", "text")],
        True,
    ),
}


@pytest.mark.parametrize("source_kind", sorted(SOURCES))
@pytest.mark.parametrize(
    "strategies",
    [{"a": "grid"}, {"a": "kd"}, {"a": "grid", "b": "kd"}],
    ids=["grid", "kd", "grid+kd"],
)
def test_each_shard_equals_a_row_path_build_of_its_routed_rows(strategies, source_kind):
    partitionings = partitionings_for(strategies)
    columns, indexed = SOURCES[source_kind]
    database = Database()
    source = database.create_table("pts", columns)
    rng = random.Random(5)
    rows = []
    for i, box in enumerate(boxes_touching(partitionings)):
        row = (i, rng.uniform(0, WIDTH), None if i % 7 == 3 else rng.uniform(0, HEIGHT), box)
        rows.append(row + (("", None, f"dot {i}")[i % 3],) if source_kind == "text" else row)
    source.bulk_load(rows)
    side = database.create_table("side", [("tuple_id", "int"), ("x", "float"), ("y", "float")])
    side.bulk_load((i, float(i), None if i % 5 == 0 else 2.0 * i) for i in range(40))
    side.create_index("side_tuple", "tuple_id", "btree", unique=True)
    if indexed:
        source.create_index("pts_tuple", "tuple_id", "btree", unique=True)
        source.create_index("pts_bbox", "bbox", "rtree")
        source.create_index("pts_x", "x", "btree")
        source.cluster("pts_bbox")
    compiled = compile_application(with_side_layer(two_canvas_app(list(strategies))))
    shards, _ = ShardedIndexer(database, compiled, CONFIG).build_shards(partitionings)

    routed = reference_routes(source.scan_rows(), list(partitionings.values()))
    for shard, rows in zip(shards, routed):
        copied = shard.database.table("pts")
        assert table_state(copied) == table_state(row_path_copy(source, rows))
        assert table_state(shard.database.table("side")) == table_state(
            row_path_copy(side, list(side.scan_rows()))
        )
        assert shard.rows_by_table == {"pts": len(rows), "side": len(side)}
    copied_ids = [row[0] for rows in routed for row in rows]
    assert len(copied_ids) > len(set(copied_ids))  # boundary boxes are replicated
    assert any(row[2] is None for rows in routed for row in rows)  # NULLs are copied


def test_a_copy_refused_by_a_unique_index_leaves_the_table_as_it_was():
    database = Database()
    columns = [("id", "int"), ("bbox", "bbox"), ("label", "text")]
    source = database.create_table("src", columns)
    source.bulk_load([(7, (0.0, 0.0, 1.0, 1.0), "a"), (1, None, "b"), (8, (1.0, 1.0, 2.0, 2.0), None)])
    target = database.create_table("dst", columns)
    target.bulk_load([(1, (5.0, 5.0, 6.0, 6.0), "held")])
    target.create_index("dst_id", "id", "btree", unique=True)
    target.create_index("dst_bbox", "bbox", "rtree")
    before = table_state(target)

    with pytest.raises(DuplicateKeyError, match="duplicate key 1"):
        target.copy_records(source, source.rids())
    assert table_state(target) == before and len(target) == 1
    # A copy repeating a key within itself is refused the same way.
    with pytest.raises(DuplicateKeyError, match="duplicate key 7"):
        target.copy_records(source, [source.rids()[0], source.rids()[0]])
    assert table_state(target) == before

    with pytest.raises(RecordNotFoundError):  # a rid of another table
        target.copy_records(source, [target.rids()[0] + 1])
    with pytest.raises(SchemaError):  # records of other columns
        target.copy_records(database.create_table("ids", [("id", "int")]), [])
    assert table_state(target) == before

    assert target.copy_records(source, [source.rids()[2], source.rids()[0]]) == 2
    assert [row for _, row in target.scan()] == [
        (1, (5.0, 5.0, 6.0, 6.0), "held"), (8, (1.0, 1.0, 2.0, 2.0), None),
        (7, (0.0, 0.0, 1.0, 1.0), "a"),
    ]
    assert target.get_index("dst_id").index.search(7) == [target.rids()[2]]
