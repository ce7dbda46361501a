"""Predictive prefetching (Section 4 / related work).

ForeCache-style prefetching predicts where the user will look next and warms
the caches before the interaction happens.  Two predictors are provided:

* :class:`MomentumPrefetcher` — extrapolates the user's recent viewport
  movement ("momentum-based prefetching takes the user's recent movements
  into account");
* :class:`NeighborhoodPrefetcher` — a simple semantic-style predictor that
  prefetches the regions adjacent to the current viewport in every
  direction.

The predictors only *propose* viewports; the frontend decides whether to
issue the prefetch requests (and the benchmark harness measures the effect
of doing so on top of dynamic boxes — experiment E7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.viewport import Viewport
from ..errors import KyrixError


class Prefetcher:
    """Base class of prefetch predictors."""

    name = "none"

    def observe(self, viewport: Viewport) -> None:
        """Record that the user moved to ``viewport``."""

    def predict(self, count: int = 1) -> list[Viewport]:
        """Return up to ``count`` predicted future viewports."""
        return []

    def reset(self) -> None:
        """Forget all history (called on canvas jumps)."""


@dataclass
class MomentumPrefetcher(Prefetcher):
    """Extrapolate the average velocity of the last few viewport moves."""

    history_window: int = 4
    name: str = "momentum"
    _history: deque[Viewport] = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        self._history = deque(maxlen=max(2, self.history_window))

    def observe(self, viewport: Viewport) -> None:
        self._history.append(viewport)

    def predict(self, count: int = 1) -> list[Viewport]:
        if len(self._history) < 2:
            return []
        moves = list(self._history)
        dxs = [b.x - a.x for a, b in zip(moves, moves[1:])]
        dys = [b.y - a.y for a, b in zip(moves, moves[1:])]
        avg_dx = sum(dxs) / len(dxs)
        avg_dy = sum(dys) / len(dys)
        if avg_dx == 0 and avg_dy == 0:
            return []
        current = moves[-1]
        predictions = []
        for step in range(1, count + 1):
            predictions.append(current.panned(avg_dx * step, avg_dy * step))
        return predictions

    def reset(self) -> None:
        self._history.clear()


@dataclass
class NeighborhoodPrefetcher(Prefetcher):
    """Prefetch the four viewports adjacent to the current one.

    A stand-in for ForeCache's semantic-based prediction: with no movement
    signal it assumes the user may pan in any cardinal direction by one
    viewport.
    """

    name: str = "neighborhood"
    _current: Viewport | None = None

    def observe(self, viewport: Viewport) -> None:
        self._current = viewport

    def predict(self, count: int = 4) -> list[Viewport]:
        if self._current is None:
            return []
        viewport = self._current
        neighbors = [
            viewport.panned(viewport.width, 0.0),
            viewport.panned(-viewport.width, 0.0),
            viewport.panned(0.0, viewport.height),
            viewport.panned(0.0, -viewport.height),
        ]
        return neighbors[:count]

    def reset(self) -> None:
        self._current = None


def make_prefetcher(strategy: str) -> Prefetcher:
    """Factory from a :class:`~repro.config.PrefetchConfig` strategy name."""
    if strategy == "momentum":
        return MomentumPrefetcher()
    if strategy == "semantic":
        return NeighborhoodPrefetcher()
    raise KyrixError(f"unknown prefetch strategy: {strategy!r}")
