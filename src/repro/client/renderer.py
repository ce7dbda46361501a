"""Raster renderer: the offline stand-in for the browser's D3 rendering.

The frontend renders fetched objects into a numpy pixel buffer the size of
the viewport.  This is deliberately simple — dots, rectangles and labels —
but it exercises the full render path (rendering function -> primitives ->
pixels) so examples can verify what the user would see, and the metrics
collector can attribute render time per interaction step.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.rendering import Renderer
from ..core.viewport import Viewport
from ..errors import ClientError


@dataclass
class RenderStats:
    """Counters for one renderer instance."""

    objects_rendered: int = 0
    primitives_rendered: int = 0
    frames: int = 0


class RasterRenderer:
    """Rasterises render primitives into a float intensity buffer."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ClientError(f"raster dimensions must be positive: {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.buffer = np.zeros((self.height, self.width), dtype=np.float64)
        self.stats = RenderStats()

    # -- frame lifecycle ------------------------------------------------------------

    def clear(self) -> None:
        """Start a new frame."""
        self.buffer.fill(0.0)
        self.stats.frames += 1

    def render_objects(
        self,
        objects: Iterable[dict[str, Any]],
        renderer: Renderer,
        viewport: Viewport,
    ) -> int:
        """Render ``objects`` through ``renderer`` relative to ``viewport``.

        Returns the number of primitives drawn (objects entirely outside the
        viewport contribute none).
        """
        drawn = 0
        for row in objects:
            primitives = renderer.render(row)
            self.stats.objects_rendered += 1
            for primitive in primitives:
                if self._draw(primitive, viewport):
                    drawn += 1
                    self.stats.primitives_rendered += 1
        return drawn

    # -- primitive drawing ------------------------------------------------------------

    def _draw(self, primitive: dict[str, Any], viewport: Viewport) -> bool:
        kind = primitive.get("kind", "dot")
        anchored = bool(primitive.get("viewport_anchored", False))
        x = float(primitive.get("x", 0.0))
        y = float(primitive.get("y", 0.0))
        if not anchored:
            x -= viewport.x
            y -= viewport.y
        intensity = float(primitive.get("intensity", 1.0))
        if kind == "dot":
            radius = max(0.5, float(primitive.get("radius", 1.0)))
            return self._draw_rect(
                x - radius, y - radius, 2 * radius, 2 * radius, intensity
            )
        if kind == "rect":
            width = float(primitive.get("width", 1.0))
            height = float(primitive.get("height", 1.0))
            return self._draw_rect(x - width / 2, y - height / 2, width, height, intensity)
        if kind == "label":
            # Labels are drawn as a faint 1-pixel marker; text layout is out
            # of scope for the reproduction.
            return self._draw_rect(x, y, 1.0, 1.0, min(0.25, intensity))
        raise ClientError(f"unknown render primitive kind {kind!r}")

    def _draw_rect(self, x: float, y: float, width: float, height: float, intensity: float) -> bool:
        # Scalar math, not numpy: a numpy ufunc on one float costs twice as much.
        x0 = max(0, math.floor(x))
        y0 = max(0, math.floor(y))
        x1 = min(self.width, math.ceil(x + width))
        y1 = min(self.height, math.ceil(y + height))
        if x0 >= x1 or y0 >= y1:
            return False
        self.buffer[y0:y1, x0:x1] += intensity
        return True

    # -- inspection -------------------------------------------------------------------

    def nonzero_pixels(self) -> int:
        """Number of pixels touched in the current frame."""
        return int(np.count_nonzero(self.buffer))

    def total_intensity(self) -> float:
        return float(self.buffer.sum())

    def snapshot(self) -> np.ndarray:
        """A copy of the current frame."""
        return self.buffer.copy()
