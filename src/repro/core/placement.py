"""Placement functions: where each data object lands on a canvas.

Section 2.1(2): "The location of each returned data object on the canvas.
This is specified using a placement function."  A placement maps one
transformed row to a bounding box in canvas coordinates.  The backend's
indexer evaluates placements during precomputation to build either the
tuple–tile mapping table or the ``bbox`` column with its spatial index.

Two styles are supported:

* :class:`ColumnPlacement` — declarative: name the columns that hold the
  object's centre (plus constant or column-driven width/height).  This is
  the *separable* case of Section 3.2.
* :class:`CallablePlacement` — arbitrary Python, for non-separable layouts
  (the paper's pie-chart example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import SpecError
from ..storage.rtree import Rect


class Placement:
    """Base class of placement strategies."""

    #: Whether the placement only reads single x/y attributes (separable).
    separable: bool = False

    def place(self, row: dict[str, Any]) -> Rect:  # pragma: no cover - overridden
        """Return the object's bounding box on the canvas."""
        raise NotImplementedError


@dataclass
class ColumnPlacement(Placement):
    """Place objects by reading their centre (and size) from row columns.

    ``width``/``height`` may be constants (float) or column names (str).
    Scale factors support the "simple scaling of raw data attributes" case.
    """

    x_column: str
    y_column: str
    width: float | str = 1.0
    height: float | str = 1.0
    x_scale: float = 1.0
    y_scale: float = 1.0
    x_offset: float = 0.0
    y_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.x_column or not self.y_column:
            raise SpecError("ColumnPlacement requires x_column and y_column")
        self.separable = True

    def _dimension(self, row: dict[str, Any], spec: float | str, name: str) -> float:
        if isinstance(spec, str):
            if spec not in row:
                raise SpecError(f"placement {name} column {spec!r} missing from row")
            return float(row[spec])
        return float(spec)

    def place(self, row: dict[str, Any]) -> Rect:
        if self.x_column not in row or self.y_column not in row:
            raise SpecError(
                f"placement columns {self.x_column!r}/{self.y_column!r} missing from row"
            )
        cx = float(row[self.x_column]) * self.x_scale + self.x_offset
        cy = float(row[self.y_column]) * self.y_scale + self.y_offset
        half_w = self._dimension(row, self.width, "width") / 2.0
        half_h = self._dimension(row, self.height, "height") / 2.0
        return Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h)


@dataclass
class CallablePlacement(Placement):
    """Place objects with an arbitrary function ``row -> (cx, cy, w, h)``.

    This covers non-separable layouts where an object's position depends on
    several attributes or on other objects (already folded into the row by
    the transform function).
    """

    func: Callable[[dict[str, Any]], tuple[float, float, float, float]]
    name: str = "custom"

    def __post_init__(self) -> None:
        if not callable(self.func):
            raise SpecError("CallablePlacement requires a callable")
        self.separable = False

    def place(self, row: dict[str, Any]) -> Rect:
        result = self.func(dict(row))
        if not isinstance(result, (tuple, list)) or len(result) != 4:
            raise SpecError(
                f"placement function {self.name!r} must return (cx, cy, w, h), "
                f"got {result!r}"
            )
        cx, cy, width, height = (float(v) for v in result)
        if width < 0 or height < 0:
            raise SpecError(
                f"placement function {self.name!r} returned negative size "
                f"({width}x{height})"
            )
        return Rect(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)
