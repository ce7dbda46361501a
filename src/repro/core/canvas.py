"""Canvases: arbitrarily sized worksheets made of overlaid layers."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SpecError
from .layer import Layer
from .transform import Transform


@dataclass
class Canvas:
    """A single static view of the application.

    Mirrors ``new Canvas("statemap")`` plus the width/height the Kyrix
    compiler attaches; transforms are registered per-canvas
    (``canvas.addTransform(...)``) and referenced by layers.
    """

    canvas_id: str
    width: float = 1_000_000.0
    height: float = 100_000.0
    layers: list[Layer] = field(default_factory=list)
    transforms: dict[str, Transform] = field(default_factory=dict)
    #: Zoom factor relative to the application's top canvas (1 = overview).
    zoom_level: float = 1.0

    def __post_init__(self) -> None:
        if not self.canvas_id:
            raise SpecError("canvas_id must be non-empty")
        if self.width <= 0 or self.height <= 0:
            raise SpecError(
                f"canvas {self.canvas_id!r}: dimensions must be positive "
                f"({self.width}x{self.height})"
            )

    # -- JS-style mutators ------------------------------------------------------

    def addTransform(self, transform: Transform) -> "Canvas":  # noqa: N802
        """Register a transform (JS-style alias of :meth:`add_transform`)."""
        return self.add_transform(transform)

    def add_transform(self, transform: Transform) -> "Canvas":
        if transform.transform_id in self.transforms:
            raise SpecError(
                f"canvas {self.canvas_id!r}: duplicate transform "
                f"{transform.transform_id!r}"
            )
        self.transforms[transform.transform_id] = transform
        return self

    def addLayer(self, layer: Layer) -> "Canvas":  # noqa: N802
        """Append a layer (JS-style alias of :meth:`add_layer`)."""
        return self.add_layer(layer)

    def add_layer(self, layer: Layer) -> "Canvas":
        if layer.name is None:
            layer.name = f"{self.canvas_id}_layer{len(self.layers)}"
        self.layers.append(layer)
        return self

    # -- queries --------------------------------------------------------------------

    def layer(self, index: int) -> Layer:
        if index < 0 or index >= len(self.layers):
            raise SpecError(
                f"canvas {self.canvas_id!r} has no layer {index} "
                f"(it has {len(self.layers)})"
            )
        return self.layers[index]

    def transform_for(self, layer: Layer) -> Transform:
        """Resolve a layer's transform, falling back to the empty transform."""
        if layer.transform_id in self.transforms:
            return self.transforms[layer.transform_id]
        if layer.is_empty:
            return Transform.empty()
        raise SpecError(
            f"canvas {self.canvas_id!r}: layer references unknown transform "
            f"{layer.transform_id!r}"
        )

    @property
    def dynamic_layers(self) -> list[tuple[int, Layer]]:
        """The (index, layer) pairs that need data fetched on pan."""
        return [
            (index, layer)
            for index, layer in enumerate(self.layers)
            if not layer.static and not layer.is_empty
        ]
