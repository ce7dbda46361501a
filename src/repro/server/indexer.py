"""Placement precomputation and index building.

"Based on the developer specification, the backend server then builds
indexes and performs necessary precomputation."  For every dynamic layer the
indexer:

1. runs the layer's transform query against the database,
2. applies the transform's post-processing function,
3. evaluates the placement function for every object,
4. materialises a *placement table* holding the transformed columns plus
   ``tuple_id``, ``cx``, ``cy`` and ``bbox``,
5. builds a B-tree on ``tuple_id`` and an R-tree on ``bbox`` (the paper's
   second database design), and
6. on demand, materialises a *tuple–tile mapping table* per tile size with
   B-tree indexes on ``tuple_id`` and ``tile_id`` (the first design).

Separable layers (Section 3.2) skip steps 3–5: their queries run directly
against the raw table, whose spatial index is assumed (and here verified /
created) by the DBA.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any

from ..compiler.plan import CompiledApplication, LayerPlan
from ..core.application import Application
from ..core.placement import Placement
from ..core.transform import Transform
from ..errors import PrecomputeError
from ..minisql.executor import SQLEngine
from ..storage.database import Database
from ..storage.types import ColumnType
from .tile import TileScheme


@dataclass
class PrecomputeReport:
    """What precomputation did for one layer."""

    layer: tuple[str, int]
    placement_table: str | None
    rows: int
    separable: bool
    skipped: bool
    elapsed_ms: float
    mapping_tables: dict[int, str] = field(default_factory=dict)


class Indexer:
    """Builds placement tables, mapping tables and their indexes."""

    def __init__(
        self,
        database: Database,
        compiled: CompiledApplication,
        *,
        engine: SQLEngine | None = None,
    ) -> None:
        self.database = database
        self.compiled = compiled
        self.engine = engine or SQLEngine(database)
        self.reports: list[PrecomputeReport] = []

    # -- public API -----------------------------------------------------------------

    def precompute_all(self, tile_sizes: tuple[int, ...] = ()) -> list[PrecomputeReport]:
        """Precompute every dynamic layer (and optionally mapping tables)."""
        reports = []
        for layer_plan in self.compiled.all_layer_plans():
            if layer_plan.static:
                continue
            report = self.precompute_layer(layer_plan)
            for tile_size in tile_sizes:
                name = self.build_mapping_table(layer_plan, tile_size)
                report.mapping_tables[tile_size] = name
            reports.append(report)
        return reports

    def precompute_layer(self, layer_plan: LayerPlan) -> PrecomputeReport:
        """Materialise the placement table for one dynamic layer."""
        app = self._spec()
        canvas = app.canvas(layer_plan.canvas_id)
        layer = canvas.layer(layer_plan.layer_index)
        transform = canvas.transform_for(layer)

        start = time.perf_counter()
        if layer_plan.separable:
            self._ensure_separable_index(layer_plan)
            report = PrecomputeReport(
                layer=layer_plan.key,
                placement_table=None,
                rows=self.database.table(layer_plan.source_table).row_count
                if layer_plan.source_table
                else 0,
                separable=True,
                skipped=True,
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
            )
            self.reports.append(report)
            return report

        placement = layer.placement
        if placement is None:
            raise PrecomputeError(
                f"layer {layer_plan.layer_name!r} has no placement function"
            )
        rows = self._transformed_rows(transform)
        table_name = layer_plan.placement_table
        if table_name is None:
            raise PrecomputeError(
                f"layer {layer_plan.layer_name!r} has no placement table name"
            )
        row_count = self._materialise_placement_table(
            table_name, rows, placement, canvas.width, canvas.height, layer_plan
        )
        report = PrecomputeReport(
            layer=layer_plan.key,
            placement_table=table_name,
            rows=row_count,
            separable=False,
            skipped=False,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
        )
        self.reports.append(report)
        return report

    def build_mapping_table(self, layer_plan: LayerPlan, tile_size: int) -> str:
        """Materialise the tuple–tile mapping table for one tile size.

        "Each record in this table corresponds to a tuple that overlaps a
        tile" — a tuple whose bbox straddles a tile boundary appears once
        per overlapped tile.
        """
        canvas_plan = self.compiled.canvas_plan(layer_plan.canvas_id)
        scheme = TileScheme(canvas_plan.width, canvas_plan.height, tile_size)
        mapping_name = layer_plan.mapping_table_for(tile_size)
        if self.database.has_table(mapping_name):
            return mapping_name

        source_name = layer_plan.placement_table or layer_plan.source_table
        if source_name is None:
            raise PrecomputeError(
                f"layer {layer_plan.layer_name!r} has no table to map tiles from"
            )
        source = self.database.table(source_name)

        # scheme.tiles_for_rect on every row, the grid read once: a stored
        # bbox needs no Rect's check, and a right or bottom edge exactly on
        # a tile boundary belongs to the tile before it (``_inclusive``; a
        # coordinate that is a multiple of the tile size is a whole number).
        size, columns = scheme.tile_size, scheme.columns
        last_column, last_row = columns - 1, scheme.rows - 1
        mapping_rows: list[tuple[int, int]] = []
        for tuple_id, bbox in zip(source.column("tuple_id"), source.column("bbox")):
            if bbox is None:
                continue
            xmin, ymin, xmax, ymax = bbox
            if xmax > 0 and xmax % size == 0:
                xmax -= 1
            if ymax > 0 and ymax % size == 0:
                ymax -= 1
            first = max(0, math.floor(xmin / size))
            last = min(last_column, math.floor(xmax / size))
            for grid_row in range(
                max(0, math.floor(ymin / size)), min(last_row, math.floor(ymax / size)) + 1
            ):
                base = grid_row * columns
                mapping_rows += zip(repeat(tuple_id), range(base + first, base + last + 1))
        # Clustered on tile_id, as CLUSTER would leave a static precomputed
        # table: a tile's rows sit on a few consecutive heap pages.  Within a
        # tile the tuples go in tuple_id order, which the source's heap
        # order (clustered on its R-tree, so spatial) must not decide.
        mapping_rows.sort(key=itemgetter(1, 0))

        mapping = self.database.create_table(
            mapping_name, [("tuple_id", "integer"), ("tile_id", "integer")]
        )
        mapping.bulk_load(mapping_rows)
        mapping.create_index(f"{mapping_name}_tile", "tile_id", "btree")
        mapping.create_index(f"{mapping_name}_tuple", "tuple_id", "btree")
        return mapping_name

    # -- internals ---------------------------------------------------------------------

    def _spec(self) -> Application:
        if self.compiled.spec is None:
            raise PrecomputeError("compiled application carries no specification")
        return self.compiled.spec

    def _transformed_rows(self, transform: Transform) -> list[dict[str, Any]]:
        """Run the transform's query and post-processing function."""
        if not transform.query:
            return []
        result = self.engine.execute(transform.query)
        rows = [transform.apply(row) for row in result.to_dicts()]
        if transform.columns:
            missing = [c for c in transform.columns if rows and c not in rows[0]]
            if missing:
                raise PrecomputeError(
                    f"transform {transform.transform_id!r} promised columns "
                    f"{missing} that its query/function do not produce"
                )
        return rows

    def _materialise_placement_table(
        self,
        table_name: str,
        rows: list[dict[str, Any]],
        placement: Placement,
        canvas_width: float,
        canvas_height: float,
        layer_plan: LayerPlan,
    ) -> int:
        if self.database.has_table(table_name):
            self.database.drop_table(table_name)

        data_columns = self._infer_columns(rows, layer_plan)
        schema_columns: list[tuple[str, str]] = [("tuple_id", "integer")]
        schema_columns.extend(data_columns)
        schema_columns.extend(
            [("cx", "float"), ("cy", "float"), ("bbox", "bbox")]
        )
        table = self.database.create_table(table_name, schema_columns)

        loaded_rows: list[tuple[Any, ...]] = []
        for tuple_id, row in enumerate(rows):
            rect = placement.place(row)
            if (
                rect.xmax < 0
                or rect.ymax < 0
                or rect.xmin > canvas_width
                or rect.ymin > canvas_height
            ):
                # Objects placed entirely off-canvas are dropped; this mirrors
                # the original system where the canvas is authoritative.
                continue
            cx, cy = rect.center
            values: list[Any] = [tuple_id]
            values.extend(row.get(name) for name, _ in data_columns)
            values.extend([cx, cy, rect.as_tuple()])
            loaded_rows.append(tuple(values))
        table.bulk_load(loaded_rows)
        table.create_index(f"{table_name}_tuple", "tuple_id", "btree", unique=True)
        table.create_index(f"{table_name}_bbox", "bbox", "rtree")
        table.cluster(f"{table_name}_bbox")
        return len(loaded_rows)

    @staticmethod
    def _infer_columns(
        rows: list[dict[str, Any]], layer_plan: LayerPlan
    ) -> list[tuple[str, str]]:
        """Infer storage types for the transform's output columns."""
        if not rows:
            names = list(layer_plan.columns)
            return [(name, "float") for name in names]
        sample = rows[0]
        names = list(layer_plan.columns) if layer_plan.columns else list(sample.keys())
        reserved = {"tuple_id", "cx", "cy", "bbox"}
        columns: list[tuple[str, str]] = []
        for name in names:
            if name in reserved:
                continue
            value = next(
                (row[name] for row in rows if row.get(name) is not None), None
            )
            columns.append((name, _python_type_to_column(value)))
        return columns

    def _ensure_separable_index(self, layer_plan: LayerPlan) -> None:
        """For separable layers, make sure the raw table has a spatial index
        and is clustered on it.

        The paper assumes "DBAs have built spatial indexes on relevant raw
        data attributes when data is first loaded"; to keep the reproduction
        self-contained the index is created here when missing.  A table
        served through GiST is also ``CLUSTER``ed on it, so a box query's
        rows sit on a few pages: the DBA's second step, taken here too (a
        table already in the index's order is left as it is).
        """
        if layer_plan.source_table is None:
            raise PrecomputeError(
                f"separable layer {layer_plan.layer_name!r} has no source table"
            )
        table = self.database.table(layer_plan.source_table)
        if not table.schema.has_column("bbox"):
            raise PrecomputeError(
                f"separable layer {layer_plan.layer_name!r}: raw table "
                f"{layer_plan.source_table!r} has no bbox column"
            )
        rtree = table.find_index_on("bbox", kinds=("rtree",))
        if rtree is None:
            rtree = table.create_index(f"{layer_plan.source_table}_bbox_auto", "bbox", "rtree")
        table.cluster(rtree.name)
        if table.schema.has_column("tuple_id") and table.find_index_on(
            "tuple_id", kinds=("btree",)
        ) is None:
            table.create_index(
                f"{layer_plan.source_table}_tuple_auto", "tuple_id", "btree"
            )


def _python_type_to_column(value: Any) -> str:
    if isinstance(value, bool):
        return "integer"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "text"
    if isinstance(value, (tuple, list)) and len(value) == 4:
        return "bbox"
    return "text"
