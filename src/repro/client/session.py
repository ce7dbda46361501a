"""Exploration sessions: replayed viewport movement traces.

The figure replays and the examples drive the frontend through
*viewport movement traces* (Figure 5).  An
:class:`ExplorationSession` wraps a frontend, replays a trace, and returns
the per-step latency metrics, excluding the initial canvas load (the paper
measures response time per pan step, not cold start).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.viewport import Viewport
from ..metrics.collector import LatencyBreakdown, MetricsCollector
from .frontend import KyrixFrontend


@dataclass
class SessionResult:
    """Outcome of replaying one trace.

    ``metrics`` holds the result's own copy of the measured steps: later
    interactions on the same frontend do not change a returned result.
    """

    steps: int
    average_response_ms: float
    metrics: MetricsCollector
    initial_load: LatencyBreakdown | None = None
    #: Requests the frontend's prefetcher issued during the measured steps.
    prefetch_requests: int = 0

    def component_averages(self) -> dict[str, float]:
        return self.metrics.component_averages()

    def total_requests(self) -> int:
        return self.metrics.total_requests()

    def total_objects(self) -> int:
        return self.metrics.total_objects()


class ExplorationSession:
    """Replays interaction traces against a :class:`KyrixFrontend`."""

    def __init__(self, frontend: KyrixFrontend) -> None:
        self.frontend = frontend

    def run_trace(
        self,
        canvas_id: str,
        positions: Sequence[tuple[float, float]],
        *,
        viewport_width: float | None = None,
        viewport_height: float | None = None,
    ) -> SessionResult:
        """Load ``canvas_id`` at the first position, then pan through the rest.

        ``positions`` are viewport top-left corners in canvas coordinates.
        The initial load is *not* counted in the per-step metrics, matching
        the paper's measurement of pan response times.
        """
        if not positions:
            raise ValueError("a trace needs at least one viewport position")
        width = viewport_width or self.frontend.config.viewport_width
        height = viewport_height or self.frontend.config.viewport_height
        prefetched = self.frontend.prefetch_requests

        first_x, first_y = positions[0]
        initial = self.frontend.load_canvas(
            canvas_id, Viewport(first_x, first_y, width, height)
        )
        # Reset metrics so only the pan steps are measured.
        self.frontend.metrics.reset()

        for x, y in positions[1:]:
            self.frontend.pan_to(x, y)
        return self._result(len(positions) - 1, initial, prefetched)

    def _result(
        self, steps: int, initial: LatencyBreakdown | None, prefetched: int
    ) -> SessionResult:
        # A copy, not the frontend's collector: the next replay resets that.
        metrics = MetricsCollector(self.frontend.metrics.steps)
        return SessionResult(
            steps=steps,
            average_response_ms=metrics.average_response_ms(),
            metrics=metrics,
            initial_load=initial,
            prefetch_requests=self.frontend.prefetch_requests - prefetched,
        )
