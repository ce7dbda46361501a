"""Compiled execution plans.

The compiler turns a validated :class:`~repro.core.application.Application`
into a :class:`CompiledApplication`: a per-layer description of which
database tables hold the layer's placed objects, which indexes exist, and
which fetching granularity the backend should use.  The backend server and
the indexer work exclusively from this plan, never from the raw spec.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from ..core.application import Application
from ..core.canvas import Canvas
from ..core.layer import Layer
from ..core.transform import Transform
from ..errors import UnknownCanvasError, UnknownLayerError


@dataclass
class LayerPlan:
    """Everything the backend needs to serve one dynamic layer.

    Attributes
    ----------
    canvas_id / layer_index:
        Which layer of which canvas this plan describes.
    placement_table:
        Name of the precomputed table holding one row per placed object:
        the transformed columns plus ``tuple_id``, ``cx``, ``cy`` and
        ``bbox``.
    mapping_table:
        Name of the tuple–tile mapping table (``tuple_id``, ``tile_id``)
        used by the tuple-tile database design; built lazily per tile size.
    separable:
        True when placement precomputation can be skipped (Section 3.2) and
        queries can run against the raw table's own spatial index.
    source_table:
        For separable layers: the raw table that queries run against.
    columns:
        Output columns of the layer's transform (what the frontend receives).
    static:
        Static layers are fetched once per canvas load and never re-fetched
        on pan.
    """

    canvas_id: str
    layer_index: int
    layer_name: str
    transform_id: str
    static: bool
    placement_table: str | None = None
    mapping_table_prefix: str | None = None
    separable: bool = False
    source_table: str | None = None
    columns: tuple[str, ...] = ()
    fetching: str | None = None

    def mapping_table_for(self, tile_size: int) -> str:
        """Mapping-table name for one tile size (one table per size)."""
        prefix = self.mapping_table_prefix or f"{self.placement_table}_map"
        return f"{prefix}_{tile_size}"

    @property
    def key(self) -> tuple[str, int]:
        return (self.canvas_id, self.layer_index)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable form (``columns`` stays a list on the wire)."""
        data = asdict(self)
        data["columns"] = list(self.columns)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LayerPlan":
        data = dict(data)
        data["columns"] = tuple(data.get("columns", ()))
        return cls(**data)


@dataclass
class CanvasPlan:
    """Compiled form of one canvas."""

    canvas_id: str
    width: float
    height: float
    zoom_level: float
    layers: list[LayerPlan] = field(default_factory=list)

    def dynamic_layers(self) -> list[LayerPlan]:
        return [layer for layer in self.layers if not layer.static]

    def to_dict(self) -> dict[str, Any]:
        return {
            "canvas_id": self.canvas_id,
            "width": self.width,
            "height": self.height,
            "zoom_level": self.zoom_level,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CanvasPlan":
        return cls(
            canvas_id=data["canvas_id"],
            width=data["width"],
            height=data["height"],
            zoom_level=data["zoom_level"],
            layers=[LayerPlan.from_dict(layer) for layer in data.get("layers", [])],
        )


@dataclass
class CompiledApplication:
    """The full compiled plan for an application."""

    app_name: str
    canvases: dict[str, CanvasPlan] = field(default_factory=dict)
    #: The original (validated) specification, kept for jump resolution and
    #: renderer access at runtime.
    spec: Application | None = None

    def canvas_plan(self, canvas_id: str) -> CanvasPlan:
        return self.canvases[canvas_id]

    def layer_plan(self, canvas_id: str, layer_index: int) -> LayerPlan:
        return self.canvases[canvas_id].layers[layer_index]

    def require_layer_plan(self, canvas_id: str, layer_index: int) -> LayerPlan:
        """Like :meth:`layer_plan` but with serving-grade validation.

        The backend and the cluster router share this so a bad request
        raises the same error regardless of deployment shape.
        """
        if canvas_id not in self.canvases:
            raise UnknownCanvasError(f"no canvas {canvas_id!r}")
        canvas_plan = self.canvases[canvas_id]
        if layer_index < 0 or layer_index >= len(canvas_plan.layers):
            raise UnknownLayerError(
                f"canvas {canvas_id!r} has no layer {layer_index}"
            )
        return canvas_plan.layers[layer_index]

    def canvas_info(self, canvas_id: str) -> dict[str, Any]:
        """Size and layer summary of a canvas (the frontend's bootstrap call)."""
        if canvas_id not in self.canvases:
            raise UnknownCanvasError(f"no canvas {canvas_id!r}")
        plan = self.canvas_plan(canvas_id)
        return {
            "canvas_id": canvas_id,
            "width": plan.width,
            "height": plan.height,
            "layers": [
                {
                    "index": layer.layer_index,
                    "name": layer.layer_name,
                    "static": layer.static,
                    "separable": layer.separable,
                }
                for layer in plan.layers
            ],
        }

    def all_layer_plans(self) -> list[LayerPlan]:
        plans: list[LayerPlan] = []
        for canvas in self.canvases.values():
            plans.extend(canvas.layers)
        return plans

    def to_dict(self) -> dict[str, Any]:  # repolint: disable=protocol-drift
        """The plan as plain JSON-serialisable data.

        The attached ``spec`` (live :class:`Application` with transform
        closures and renderer callables) is deliberately dropped: the dict
        form is what ships to shard worker processes, which serve purely
        from the compiled plan and the precomputed tables.
        """
        return {
            "app_name": self.app_name,
            "canvases": {
                canvas_id: plan.to_dict()
                for canvas_id, plan in self.canvases.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CompiledApplication":
        """Rebuild a (spec-less) plan from its :meth:`to_dict` form."""
        return cls(
            app_name=data["app_name"],
            canvases={
                canvas_id: CanvasPlan.from_dict(plan)
                for canvas_id, plan in data.get("canvases", {}).items()
            },
            spec=None,
        )

    def describe(self) -> dict[str, Any]:
        return {
            "app": self.app_name,
            "canvases": {
                cid: {
                    "size": [plan.width, plan.height],
                    "layers": [
                        {
                            "name": layer.layer_name,
                            "static": layer.static,
                            "separable": layer.separable,
                            "placement_table": layer.placement_table,
                            "source_table": layer.source_table,
                            "fetching": layer.fetching,
                        }
                        for layer in plan.layers
                    ],
                }
                for cid, plan in self.canvases.items()
            },
        }


def placement_table_name(app_name: str, canvas: Canvas, layer_index: int) -> str:
    """Canonical name of the precomputed placement table for a layer."""
    return f"{app_name}_{canvas.canvas_id}_layer{layer_index}_place".lower()
