"""Layers: the unit of data + placement + rendering on a canvas.

A canvas is "an arbitrary size worksheet with one or more overlaid layers".
Each layer names the data transform feeding it, whether it is *static*
(rendered once, not re-fetched on pan — e.g. a legend), how its objects are
placed on the canvas and how they are rendered.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from .placement import Placement
from .rendering import Renderer
from .transform import EMPTY_TRANSFORM_ID


@dataclass
class Layer:
    """One overlaid layer of a canvas.

    Mirrors ``new Layer("stateMapTrans", false)`` from the paper's Figure 3:
    the first argument is the transform id, the second whether the layer is
    static.
    """

    transform_id: str
    static: bool = False
    placement: Placement | None = None
    renderer: Renderer | None = None
    #: Optional human-readable name used in logs and the compiled plan.
    name: str | None = None
    #: Fetching granularity override for this layer (None = application default).
    fetching: str | None = None

    def __post_init__(self) -> None:
        if not self.transform_id:
            raise SpecError("layer requires a transform_id")

    # -- JS-style mutators from the paper's example ----------------------------------

    def addPlacement(self, placement: Placement) -> "Layer":  # noqa: N802
        """Attach a placement (JS-style alias of :meth:`add_placement`)."""
        return self.add_placement(placement)

    def add_placement(self, placement: Placement) -> "Layer":
        if not isinstance(placement, Placement):
            raise SpecError("add_placement expects a Placement instance")
        self.placement = placement
        return self

    def addRenderingFunc(self, renderer: Renderer) -> "Layer":  # noqa: N802
        """Attach a renderer (JS-style alias of :meth:`add_rendering_func`)."""
        return self.add_rendering_func(renderer)

    def add_rendering_func(self, renderer: Renderer) -> "Layer":
        if not isinstance(renderer, Renderer):
            raise SpecError("add_rendering_func expects a Renderer instance")
        self.renderer = renderer
        return self

    # -- queries -----------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the layer uses the empty transform (no data to fetch)."""
        return self.transform_id == EMPTY_TRANSFORM_ID

    @property
    def needs_placement(self) -> bool:
        """Dynamic, data-backed layers must define where objects go."""
        return not self.static and not self.is_empty
