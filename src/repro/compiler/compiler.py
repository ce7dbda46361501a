"""The Kyrix compiler: validated spec -> compiled execution plan."""

from __future__ import annotations

from ..core.application import Application
from ..core.placement import ColumnPlacement
from ..core.transform import Transform
from ..errors import CompileError
from ..minisql.parser import parse
from .plan import CanvasPlan, CompiledApplication, LayerPlan, placement_table_name
from .validator import validate


def compile_application(app: Application, *, skip_validation: bool = False) -> CompiledApplication:
    """Compile a declarative application into a :class:`CompiledApplication`.

    The compiler:

    1. runs the constraint checker (unless ``skip_validation``),
    2. assigns a placement-table name to every dynamic layer,
    3. detects *separable* layers (Section 3.2) — those whose transform and
       placement read x/y straight from raw columns — and records the raw
       source table so precomputation can be skipped for them,
    4. records the transform's output columns for the wire format.
    """
    if not skip_validation:
        validate(app)

    compiled = CompiledApplication(app_name=app.name, spec=app)
    for canvas_id, canvas in app.canvases.items():
        canvas_plan = CanvasPlan(
            canvas_id=canvas_id,
            width=canvas.width,
            height=canvas.height,
            zoom_level=canvas.zoom_level,
        )
        for layer_index, layer in enumerate(canvas.layers):
            transform = canvas.transform_for(layer)
            separable = _is_separable(transform, layer)
            layer_plan = LayerPlan(
                canvas_id=canvas_id,
                layer_index=layer_index,
                layer_name=layer.name or f"{canvas_id}_layer{layer_index}",
                transform_id=layer.transform_id,
                static=layer.static or layer.is_empty,
                separable=separable,
                columns=tuple(transform.columns),
                fetching=layer.fetching,
            )
            if not layer_plan.static:
                table_name = placement_table_name(app.name, canvas, layer_index)
                layer_plan.mapping_table_prefix = f"{table_name}_map"
                if separable:
                    # Separable layers skip placement precomputation and are
                    # served straight from the raw table (Section 3.2).
                    layer_plan.source_table = _source_table(transform)
                else:
                    layer_plan.placement_table = table_name
            canvas_plan.layers.append(layer_plan)
        compiled.canvases[canvas_id] = canvas_plan
    return compiled


def _is_separable(transform: Transform, layer) -> bool:
    """A layer is separable when its transform declares raw x/y columns, it
    has no arbitrary post-processing, and its placement reads those columns
    directly."""
    if not transform.separable:
        return False
    if transform.transform_func is not None:
        return False
    placement = layer.placement
    if not isinstance(placement, ColumnPlacement):
        return False
    return (
        placement.x_column == transform.x_column
        and placement.y_column == transform.y_column
    )


def _source_table(transform: Transform) -> str:
    """The raw table a separable layer's query reads from."""
    try:
        statement = parse(transform.query)
    except Exception as exc:  # pragma: no cover - validator catches this first
        raise CompileError(
            f"transform {transform.transform_id!r}: cannot parse query"
        ) from exc
    return statement.table.name
