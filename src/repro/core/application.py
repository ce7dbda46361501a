"""The application object: the root of a Kyrix declarative specification.

Mirrors the paper's ``var app = new App("usmap", "config.txt")`` — an
application owns its canvases, jumps, the initial canvas/viewport, and the
configuration naming the backing database and performance knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import KyrixConfig
from ..errors import SpecError
from .canvas import Canvas
from .jump import Jump
from .viewport import Viewport


@dataclass
class Application:
    """A complete declarative specification of a Kyrix application."""

    name: str
    config: KyrixConfig = field(default_factory=KyrixConfig)
    canvases: dict[str, Canvas] = field(default_factory=dict)
    jumps: list[Jump] = field(default_factory=list)
    initial_canvas_id: str | None = None
    initial_viewport_x: float = 0.0
    initial_viewport_y: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("application name must be non-empty")

    # -- JS-style builder API (Figure 3) -------------------------------------------

    def addCanvas(self, canvas: Canvas) -> "Application":  # noqa: N802
        """Register a canvas (JS-style alias of :meth:`add_canvas`)."""
        return self.add_canvas(canvas)

    def add_canvas(self, canvas: Canvas) -> "Application":
        if canvas.canvas_id in self.canvases:
            raise SpecError(f"duplicate canvas id {canvas.canvas_id!r}")
        self.canvases[canvas.canvas_id] = canvas
        return self

    def addJump(self, jump: Jump) -> "Application":  # noqa: N802
        """Register a jump (JS-style alias of :meth:`add_jump`)."""
        return self.add_jump(jump)

    def add_jump(self, jump: Jump) -> "Application":
        self.jumps.append(jump)
        return self

    def initialCanvas(  # noqa: N802
        self, canvas_id: str, viewport_x: float = 0.0, viewport_y: float = 0.0
    ) -> "Application":
        """Set the initial canvas and viewport (JS-style alias)."""
        return self.set_initial_canvas(canvas_id, viewport_x, viewport_y)

    def set_initial_canvas(
        self, canvas_id: str, viewport_x: float = 0.0, viewport_y: float = 0.0
    ) -> "Application":
        self.initial_canvas_id = canvas_id
        self.initial_viewport_x = viewport_x
        self.initial_viewport_y = viewport_y
        return self

    # -- queries -------------------------------------------------------------------------

    def canvas(self, canvas_id: str) -> Canvas:
        if canvas_id not in self.canvases:
            raise SpecError(f"application {self.name!r} has no canvas {canvas_id!r}")
        return self.canvases[canvas_id]

    def jumps_from(self, canvas_id: str) -> list[Jump]:
        """Jumps whose source is ``canvas_id``."""
        return [jump for jump in self.jumps if jump.source == canvas_id]

    def jumps_to(self, canvas_id: str) -> list[Jump]:
        return [jump for jump in self.jumps if jump.destination == canvas_id]

    def initial_viewport(self) -> Viewport:
        """The initial viewport (sized from the configuration)."""
        if self.initial_canvas_id is None:
            raise SpecError("initial canvas has not been set")
        return Viewport(
            self.initial_viewport_x,
            self.initial_viewport_y,
            self.config.viewport_width,
            self.config.viewport_height,
        )


#: JS-flavoured alias so examples can read like the paper's Figure 3.
App = Application
