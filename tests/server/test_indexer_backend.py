"""Tests for placement precomputation and the backend server."""

import json
import random

import pytest

from repro.bench.apps import build_dots_application, build_dots_backend, default_config
from repro.compiler import compile_application
from repro.core import App, Canvas, ColumnPlacement, Layer, Transform, dot_renderer
from repro.datagen.synthetic import DotDatasetSpec, tiny_spec, load_dots
from repro.errors import FetchError, UnknownCanvasError, UnknownLayerError
from repro.net.protocol import DataRequest
from repro.server.backend import KyrixBackend
from repro.server.indexer import Indexer
from repro.server.schemes import DESIGN_MAPPING, DESIGN_SPATIAL
from repro.server.tile import TileScheme
from repro.storage.database import Database
from repro.storage.rtree import Rect


def build_precomputed_stack(num_points: int = 800):
    """A dots app forced through full placement precomputation."""
    spec = tiny_spec("uniform", num_points=num_points, seed=5)
    return build_dots_backend(
        spec,
        config=default_config(viewport=512),
        tile_sizes=(512,),
        precompute_placement=True,
    )


class TestIndexer:
    def test_separable_layer_skips_precomputation(self, dots_stack):
        reports = dots_stack.backend.indexer.reports
        assert len(reports) == 1
        assert reports[0].skipped is True
        assert reports[0].separable is True
        # The raw table got its "DBA" spatial index.
        table = dots_stack.database.table(dots_stack.spec.name)
        assert table.find_index_on("bbox", kinds=("rtree",)) is not None

    def test_precomputed_layer_materialises_placement_table(self):
        stack = build_precomputed_stack()
        layer = stack.compiled.layer_plan("dots", 0)
        assert layer.placement_table is not None
        table = stack.database.table(layer.placement_table)
        assert table.row_count == stack.spec.num_points
        assert table.find_index_on("bbox", kinds=("rtree",)) is not None
        assert table.find_index_on("tuple_id", kinds=("btree",)) is not None

    def test_placement_table_has_cx_cy_bbox(self):
        stack = build_precomputed_stack(num_points=50)
        layer = stack.compiled.layer_plan("dots", 0)
        schema = stack.database.table(layer.placement_table).schema
        for column in ("tuple_id", "cx", "cy", "bbox"):
            assert schema.has_column(column)

    def test_mapping_table_row_count_matches_tile_overlaps(self, dots_stack):
        layer = dots_stack.compiled.layer_plan("dots", 0)
        mapping_name = layer.mapping_table_for(512)
        mapping = dots_stack.database.table(mapping_name)
        # Every dot overlaps at least one tile; dots straddling tile borders
        # appear once per overlapped tile.
        assert mapping.row_count >= dots_stack.spec.num_points
        scheme = TileScheme(
            dots_stack.spec.canvas_width, dots_stack.spec.canvas_height, 512
        )
        tile_ids = {row[1] for row in mapping.scan_rows()}
        assert all(0 <= tile_id < scheme.tile_count for tile_id in tile_ids)

    def test_mapping_table_is_idempotent(self, dots_stack):
        layer = dots_stack.compiled.layer_plan("dots", 0)
        indexer = dots_stack.backend.indexer
        name_first = indexer.build_mapping_table(layer, 512)
        name_second = indexer.build_mapping_table(layer, 512)
        assert name_first == name_second

    def test_out_of_bounds_objects_are_dropped(self):
        database = Database()
        table = database.create_table(
            "pts", [("tuple_id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox")]
        )
        rows = [
            (0, 10.0, 10.0, (9, 9, 11, 11)),
            (1, 99999.0, 10.0, (99998, 9, 100000, 11)),  # far off the canvas
        ]
        table.bulk_load(rows)
        app = App(name="small", config=default_config(viewport=512))
        canvas = Canvas(canvas_id="main", width=2048, height=2048)
        canvas.add_transform(
            Transform(
                transform_id="t",
                query="SELECT tuple_id, x, y, bbox FROM pts",
                columns=("tuple_id", "x", "y", "bbox"),
            )
        )
        layer = Layer("t", False)
        layer.add_placement(ColumnPlacement(x_column="x", y_column="y"))
        layer.add_rendering_func(dot_renderer())
        canvas.add_layer(layer)
        app.add_canvas(canvas)
        app.set_initial_canvas("main", 0, 0)
        compiled = compile_application(app)
        indexer = Indexer(database, compiled)
        report = indexer.precompute_all()[0]
        assert report.rows == 1


def mapping_reference(database, layer_plan, scheme: TileScheme) -> list[tuple[int, int]]:
    """The mapping table's rows by ``scheme.tiles_for_rect`` on each source row."""
    source = database.table(layer_plan.source_table)
    rows = [
        (row[0], tile_id)
        for row in source.scan_rows()
        if row[3] is not None
        for tile_id in scheme.tiles_for_rect(Rect.from_tuple(row[3]))
    ]
    return sorted(rows, key=lambda row: (row[1], row[0]))


class TestMappingTableReference:
    """The mapping table equals a per-row ``tiles_for_rect`` reference, row
    for row: on a box ending exactly on a tile edge (which belongs to the
    tile before it), straddling a corner, hanging off the canvas, lying
    wholly off it, and with a NULL bbox."""

    WIDTH, HEIGHT = 1000.0, 700.0  # partial tiles on the right and bottom

    EDGE_BOXES = [
        (10.0, 10.0, 256.0, 256.0),  # ends on an edge: one tile, not four
        (256.0, 0.0, 300.0, 10.0),  # starts on an edge
        (512.0, 512.0, 512.0, 512.0),  # a point on a corner: no tile at all
        (250.0, 250.0, 260.0, 260.0),  # straddles a corner: four tiles
        (0.0, 0.0, 0.0, 0.0),
        (-50.0, -50.0, 10.0, 10.0),  # off the top-left corner
        (990.0, 690.0, 1100.0, 800.0),  # off the bottom-right corner
        (-100.0, 300.0, 1200.0, 310.0),  # wider than the canvas
        (2000.0, 2000.0, 2100.0, 2100.0),  # wholly off the canvas
        (-100.0, -100.0, -50.0, -50.0),
        (768.0, 0.0, 1024.0, 768.0),  # ends on the grid's last edges
        None,
    ]

    def _stack(self, tile_size: int, seed: int):
        rng = random.Random(seed)
        boxes = list(self.EDGE_BOXES)
        for _ in range(300):  # on a 32-grid, so many land on tile edges
            x, y = rng.randrange(-2, 34) * 32.0, rng.randrange(-2, 24) * 32.0
            boxes.append((x, y, x + rng.randrange(0, 12) * 32.0, y + rng.randrange(0, 12) * 32.0))
        spec = DotDatasetSpec("edges", canvas_width=self.WIDTH, canvas_height=self.HEIGHT,
                              num_points=len(boxes))
        database = Database()
        table = database.create_table(
            "edges", [("tuple_id", "int"), ("x", "float"), ("y", "float"), ("bbox", "bbox")]
        )
        table.bulk_load(
            (i, 0.0, 0.0, box) for i, box in enumerate(reversed(boxes))  # ids against heap order
        )
        compiled = compile_application(build_dots_application(spec, default_config(viewport=512)))
        layer = compiled.layer_plan("dots", 0)
        indexer = Indexer(database, compiled)
        name = indexer.build_mapping_table(layer, tile_size)
        return database, layer, list(database.table(name).scan_rows())

    @pytest.mark.parametrize("tile_size", [256, 128, 300])
    def test_rows_equal_the_per_row_reference(self, tile_size):
        database, layer, rows = self._stack(tile_size, seed=tile_size)
        scheme = TileScheme(self.WIDTH, self.HEIGHT, tile_size)
        assert rows == mapping_reference(database, layer, scheme)

    def test_the_edge_boxes_map_as_the_grid_says(self):
        database, layer, rows = self._stack(256, seed=1)
        first = len(database.table("edges")) - 1  # the first edge box's tuple_id
        tiles = {}
        for tuple_id, tile_id in rows:
            tiles.setdefault(first - tuple_id, []).append(tile_id)
        assert tiles[0] == [0]
        assert tiles[1] == [1]
        assert 2 not in tiles
        assert tiles[3] == [0, 1, 4, 5]
        assert tiles[5] == [0] and tiles[6] == [11]
        assert 8 not in tiles and 9 not in tiles and 11 not in tiles
        assert tiles[10] == [3, 7, 11]


class TestBackendSpatialDesign:
    def test_box_request_returns_objects_in_box(self, dots_stack):
        request = DataRequest(
            canvas_id="dots", layer_index=0,
            granularity="box", design=DESIGN_SPATIAL,
            xmin=0, ymin=0, xmax=1024, ymax=1024,
        )
        response = dots_stack.backend.handle(request)
        assert response.object_count() > 0
        assert response.queries_issued == 1
        for obj in response.objects:
            assert 0 - 1 <= obj["x"] <= 1024 + 1
            assert 0 - 1 <= obj["y"] <= 1024 + 1

    def test_tile_request_spatial(self, dots_stack):
        request = DataRequest(
            canvas_id="dots", layer_index=0,
            granularity="tile", design=DESIGN_SPATIAL, tile_id=0, tile_size=512,
        )
        response = dots_stack.backend.handle(request)
        assert response.object_count() > 0

    def test_backend_cache_hit_on_repeat(self, dots_stack):
        dots_stack.service.cache.clear()
        request = DataRequest(
            canvas_id="dots", layer_index=0,
            granularity="box", design=DESIGN_SPATIAL,
            xmin=100, ymin=100, xmax=600, ymax=600,
        )
        first = dots_stack.service.handle(request)
        second = dots_stack.service.handle(request)
        assert first.from_cache is False
        assert second.from_cache is True
        assert second.query_ms == 0.0
        assert [o["tuple_id"] for o in first.objects] == [
            o["tuple_id"] for o in second.objects
        ]

    def test_bad_requests_raise(self, dots_stack):
        backend = dots_stack.backend
        with pytest.raises(UnknownCanvasError):
            backend.handle(DataRequest("missing", 0, "box", xmin=0, ymin=0, xmax=1, ymax=1))
        with pytest.raises(UnknownLayerError):
            backend.handle(DataRequest("dots", 7, "box", xmin=0, ymin=0, xmax=1, ymax=1))
        with pytest.raises(FetchError):
            backend.handle(DataRequest("dots", 0, "box"))
        with pytest.raises(FetchError):
            backend.handle(DataRequest("dots", 0, "tile", tile_id=None, tile_size=None))
        with pytest.raises(FetchError):
            backend.handle(
                DataRequest("dots", 0, "teleport", xmin=0, ymin=0, xmax=1, ymax=1)
            )

    @pytest.mark.parametrize("field", ["xmin", "ymin", "xmax", "ymax"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_box_bound_is_a_fetch_error_naming_the_field(self, dots_stack, field, value):
        """Not a SQL error about a column called ``inf``, and never a NaN
        rectangle (which every bbox would "intersect")."""
        bounds = {"xmin": 0.0, "ymin": 0.0, "xmax": 64.0, "ymax": 64.0, field: value}
        with pytest.raises(FetchError, match=rf"box bound {field} must be finite"):
            dots_stack.backend.handle(DataRequest("dots", 0, "box", **bounds))

    def test_canvas_info(self, dots_stack):
        # Canvas metadata is a function of the compiled plan, not a query.
        info = dots_stack.compiled.canvas_info("dots")
        assert info["width"] == dots_stack.spec.canvas_width
        assert info["layers"][0]["separable"] is True
        with pytest.raises(UnknownCanvasError):
            dots_stack.compiled.canvas_info("missing")

    def test_stats_accumulate(self, dots_stack):
        stats = dots_stack.backend.stats
        before = stats.queries_issued
        dots_stack.backend.handle(
            DataRequest("dots", 0, "box", xmin=0, ymin=0, xmax=64, ymax=64)
        )
        assert stats.queries_issued == before + 1


class TestBackendMappingDesign:
    def test_mapping_and_spatial_designs_agree(self, dots_stack):
        """The same tile must return the same objects under both designs."""
        scheme = TileScheme(
            dots_stack.spec.canvas_width, dots_stack.spec.canvas_height, 512
        )
        tile_id = scheme.tile_containing(
            dots_stack.spec.canvas_width / 2, dots_stack.spec.canvas_height / 2
        )
        spatial = dots_stack.backend.handle(
            DataRequest("dots", 0, "tile", design=DESIGN_SPATIAL,
                        tile_id=tile_id, tile_size=512)
        )
        mapping = dots_stack.backend.handle(
            DataRequest("dots", 0, "tile", design=DESIGN_MAPPING,
                        tile_id=tile_id, tile_size=512)
        )
        spatial_ids = {obj["tuple_id"] for obj in spatial.objects}
        mapping_ids = {obj["tuple_id"] for obj in mapping.objects}
        assert spatial_ids == mapping_ids
        assert len(spatial_ids) > 0

    def test_tile_responses_do_not_follow_the_heap_order(self):
        """The mapping table lists a tile's tuples by ``tuple_id``, so a tile
        answers byte for byte the same whichever order the raw table's heap
        was in when the mapping was built."""
        stack = build_dots_backend(
            tiny_spec("uniform", num_points=2_000, seed=9), config=default_config(viewport=512)
        )
        table = stack.database.table(stack.spec.name)
        assert table.clustered_on == f"{stack.spec.name}_bbox"  # precompute clustered it
        requests = [
            DataRequest(
                "dots", 0, "tile", design=DESIGN_MAPPING, tile_id=tile_id, tile_size=512
            )
            for tile_id in range(0, 128, 9)
        ]
        stack.backend.ensure_mapping_tables(512)
        before = [json.dumps(stack.backend.handle(request).to_dicts()) for request in requests]

        table.cluster(f"{stack.spec.name}_tuple_id")  # back to load order
        stack.database.drop_table(stack.compiled.layer_plan("dots", 0).mapping_table_for(512))
        stack.backend.ensure_mapping_tables(512)
        after = [json.dumps(stack.backend.handle(request).to_dicts()) for request in requests]
        assert after == before

    def test_mapping_design_builds_missing_table_lazily(self):
        stack = build_precomputed_stack(num_points=300)
        # No mapping tables were prebuilt for size 1024.
        response = stack.backend.handle(
            DataRequest("dots", 0, "tile", design=DESIGN_MAPPING,
                        tile_id=0, tile_size=1024)
        )
        layer = stack.compiled.layer_plan("dots", 0)
        assert stack.database.has_table(layer.mapping_table_for(1024))
        assert response.queries_issued == 1

    def test_unknown_design_rejected(self, dots_stack):
        with pytest.raises(FetchError):
            dots_stack.backend.handle(
                DataRequest("dots", 0, "tile", design="quantum",
                            tile_id=0, tile_size=512)
            )


class _EngineSeam:
    """What the benchmark's traced pass slips in as ``backend.engine``: it
    forwards everything and watches ``execute`` called with one argument."""

    def __init__(self, target):
        self._target = target
        self.executed, self.prepared = [], []

    def execute(self, statement):
        result = self._target.execute(statement)
        self.executed.append((statement, len(result)))
        return result

    def prepare(self, sql):
        self.prepared.append(sql)
        return self._target.prepare(sql)

    def __getattr__(self, name):
        return getattr(self._target, name)


class TestPreparedShapes:
    def box(self, x: float) -> DataRequest:
        return DataRequest("dots", 0, "box", xmin=x, ymin=0, xmax=x + 300, ymax=300)

    def tile(self, tile_id: int) -> DataRequest:
        return DataRequest("dots", 0, "tile", design=DESIGN_MAPPING,
                           tile_id=tile_id, tile_size=512)

    def test_each_shape_is_prepared_once_and_bound_per_request(self):
        stack = build_precomputed_stack(num_points=400)
        backend = stack.backend
        seam = backend.engine = _EngineSeam(backend.engine)
        responses = [backend.handle(request) for request in
                     (self.box(0), self.box(200), self.tile(0), self.tile(1), self.tile(0))]
        assert len(seam.prepared) == 2 and all("?" in sql for sql in seam.prepared)
        # Request-time execution crosses the engine seam with the bound statement,
        # whose result length is the row count and which ``explain`` accepts as is.
        assert [rows for _, rows in seam.executed] == [len(r.objects) for r in responses]
        (box_a, _), (box_b, _), (tile_a, _), (tile_b, _), _ = seam.executed
        assert box_a.prepared is box_b.prepared and tile_a.prepared is tile_b.prepared
        assert box_a.values == (0, 0, 300, 300) and tile_b.values == (1,)
        assert "SpatialScan" in seam.explain(box_a) and "IndexNLJoin" in seam.explain(tile_a)
        # The tile join selects the placement table alone: it returns the fetched
        # rows as they are, never an outer row and an inner row joined.
        assert "on tuple_id, inner rows)" in seam.explain(tile_a)

    def test_statements_survive_a_second_precompute(self):
        """``precompute`` drops and rebuilds the placement table under the
        prepared statements; they re-plan and answer as a fresh backend does."""
        stack = build_precomputed_stack(num_points=400)
        requests = [self.box(100), self.tile(0), self.tile(3)]
        before = [stack.backend.handle(request).objects for request in requests]
        assert all(before)
        stack.backend.precompute(tile_sizes=(512,))
        after = [stack.backend.handle(request).objects for request in requests]
        fresh = build_precomputed_stack(num_points=400).backend
        assert after == before == [fresh.handle(request).objects for request in requests]
