"""Timing and statistics utilities used throughout the reproduction.

The paper's evaluation reports the *average response time per interaction
step*.  :class:`~repro.metrics.collector.MetricsCollector` accumulates
per-step latencies (broken down into measured query and render time and the
modelled network term); :class:`~repro.metrics.timer.VirtualClock` is the
clock tests inject into breakers, the autopilot and the fault seam.
"""

from .collector import LatencyBreakdown, MetricsCollector, SummaryStats, summarize
from .timer import VirtualClock

__all__ = [
    "LatencyBreakdown",
    "MetricsCollector",
    "SummaryStats",
    "summarize",
    "VirtualClock",
]
