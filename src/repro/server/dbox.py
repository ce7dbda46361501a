"""Dynamic-box fetching granularity — the paper's novel contribution.

"Dynamic box fetching amounts to requesting a box that contains the given
viewport.  We call this enclosing box a dynamic box because its size and
location changes dynamically.  Whenever the viewport moves outside the
current box, the frontend sends the current viewport location to the backend
and requests a new box."

Section 3.3 evaluates the scheme in two forms, which differ in one
parameter, :attr:`~repro.server.schemes.FetchScheme.box_expansion`:
*Dbox* ("the box fetched is exactly the viewport in each step") and
*Dbox 50%* ("a box centered at the viewport center having width (height)
50% larger than the viewport width (height)").
:meth:`~repro.server.schemes.FetchScheme.box_for` computes the box; this
module keeps the canvas clip it applies and the frontend's per-layer
:class:`DynamicBoxState`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.viewport import Viewport
from ..storage.rtree import Rect


def _clip(rect: Rect, canvas_width: float, canvas_height: float) -> Rect:
    """Clip a box to the canvas extent."""
    return Rect(
        max(0.0, rect.xmin),
        max(0.0, rect.ymin),
        min(canvas_width, rect.xmax),
        min(canvas_height, rect.ymax),
    )


@dataclass
class DynamicBoxState:
    """Frontend-side state of the dynamic-box protocol for one layer.

    The frontend keeps the box it last fetched; a new fetch is needed only
    when the viewport is no longer contained in that box.
    """

    current_box: Rect | None = None
    fetches: int = 0
    skips: int = 0

    def needs_fetch(self, viewport: Viewport) -> bool:
        """True when the viewport has escaped the current box."""
        if self.current_box is None:
            return True
        return not self.current_box.contains(viewport.to_rect())

    def record_fetch(self, box: Rect) -> None:
        self.current_box = box
        self.fetches += 1

    def record_skip(self) -> None:
        self.skips += 1

    def reset(self) -> None:
        self.current_box = None
        self.fetches = 0
        self.skips = 0
