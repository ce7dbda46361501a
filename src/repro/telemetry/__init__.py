"""Zero-dependency tracing + metrics plane for the serving stack.

The paper's whole argument is an interactivity *budget* (~500 ms per
pan/zoom step), so when a step blows the budget we must be able to say
*where* the time went: the router's cache, the coalescer, a replica
failover, the socket hop into a worker process, or the backend query
itself.  This package provides that answer with two cooperating pieces:

* :class:`~repro.telemetry.tracer.Tracer` — per-request traces made of
  timed spans.  A ``TraceContext`` (trace id + parent span id) rides the
  request message across thread pools and the length-prefixed socket
  frames into worker processes, so one trace covers the whole
  scatter/gather fan-out including remote worker time.
* :class:`~repro.telemetry.registry.TelemetryRegistry` — fixed-bucket
  latency histograms (p50/p95/p99/p999) keyed by span name, fed by every
  finished span and rendered as Prometheus text for ``GET /metrics``.

Everything is stdlib-only and, when disabled (the default), reduces to a
shared no-op span object so the serving hot path stays unchanged.
"""

from __future__ import annotations

from .registry import Histogram, TelemetryRegistry
from .tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "Histogram",
    "NULL_SPAN",
    "Span",
    "TelemetryRegistry",
    "Tracer",
    "configure",
    "get_registry",
    "get_tracer",
]

#: Process-wide singletons.  A forked worker process reconfigures its own
#: copies from its shard backend's config, so spans recorded behind the
#: socket boundary flow into the worker's tracer and travel back to the
#: router inside the response message.
_REGISTRY = TelemetryRegistry()
_TRACER = Tracer(_REGISTRY)


def get_tracer() -> Tracer:
    """The process-wide tracer (a no-op until :func:`configure` enables it)."""
    return _TRACER


def get_registry() -> TelemetryRegistry:
    """The process-wide histogram registry fed by the tracer."""
    return _REGISTRY


def configure(config=None, **overrides) -> Tracer:
    """(Re)configure the process-wide telemetry plane.

    ``config`` is anything shaped like :class:`repro.config.TelemetryConfig`
    (attributes ``enabled``, ``export_path``); keyword overrides of those
    two win over the config object.
    Reconfiguring resets both the trace ring buffer and the histogram
    registry so each serving topology starts from a clean plane.
    """
    settings = {
        "enabled": getattr(config, "enabled", False),
        "export_path": getattr(config, "export_path", None),
    }
    settings.update(overrides)
    _REGISTRY.reset()
    _TRACER.configure(**settings)
    return _TRACER
