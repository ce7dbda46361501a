"""Per-step latency records and the clock tests inject.

The paper's evaluation reports the *average response time per interaction
step*.  :class:`~repro.metrics.collector.MetricsCollector` records the
per-step latencies (broken down into measured query and render time and the
modelled network term) and nothing else; percentiles live with the
telemetry histograms (:func:`repro.telemetry.registry.percentile`).
:class:`~repro.metrics.timer.VirtualClock` is the clock tests inject into
breakers, the autopilot and the fault seam.
"""

from .collector import LatencyBreakdown, MetricsCollector
from .timer import VirtualClock

__all__ = [
    "LatencyBreakdown",
    "MetricsCollector",
    "VirtualClock",
]
