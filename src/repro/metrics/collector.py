"""Per-interaction latency accounting.

Every user interaction (a pan step or a jump) produces one
:class:`LatencyBreakdown`.  The :class:`MetricsCollector` accumulates them and
computes what the paper reports: average response time per step, and the
averages of its components.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable


@dataclass
class LatencyBreakdown:
    """Latency components (milliseconds) of a single interaction step.

    Attributes
    ----------
    query_ms:
        Measured wall time the service spent answering the step's requests.
    network_ms:
        The one *modelled* term: per request, the round trip plus the
        transfer time of the estimated payload (:mod:`repro.net.link`) — a
        pure function of ``requests`` and ``bytes_fetched``.
    render_ms:
        Measured wall time the frontend spent rasterising the objects.
    cache_hit:
        True when the step was served entirely from a cache (frontend or
        backend) and no database query ran.
    requests:
        Number of frontend -> backend requests issued for this step.
    objects_fetched:
        Number of data objects returned across all requests of this step.
    bytes_fetched:
        Estimated serialized payload size across all requests of this step.
    """

    query_ms: float = 0.0
    network_ms: float = 0.0
    render_ms: float = 0.0
    cache_hit: bool = False
    requests: int = 0
    objects_fetched: int = 0
    bytes_fetched: int = 0

    @property
    def total_ms(self) -> float:
        """Total response time of the step."""
        return self.query_ms + self.network_ms + self.render_ms

    def merge(self, other: "LatencyBreakdown") -> None:
        """Fold another breakdown (e.g. one per request) into this step."""
        self.query_ms += other.query_ms
        self.network_ms += other.network_ms
        self.render_ms += other.render_ms
        self.requests += other.requests
        self.objects_fetched += other.objects_fetched
        self.bytes_fetched += other.bytes_fetched
        self.cache_hit = self.cache_hit and other.cache_hit


class MetricsCollector:
    """The :class:`LatencyBreakdown` records of a session or run, in order.

    Recording is thread-safe: a collector may be shared by concurrent
    sessions, so appends hold a lock.  Readers take a consistent snapshot
    under the same lock.
    """

    def __init__(self, steps: Iterable[LatencyBreakdown] = ()) -> None:
        self._steps: list[LatencyBreakdown] = list(steps)
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def record(self, breakdown: LatencyBreakdown) -> None:
        """Append one interaction step's breakdown."""
        with self._lock:
            self._steps.append(breakdown)

    def reset(self) -> None:
        with self._lock:
            self._steps.clear()

    # -- reading ------------------------------------------------------------

    @property
    def steps(self) -> list[LatencyBreakdown]:
        """The recorded steps, in order."""
        with self._lock:
            return list(self._steps)

    def __len__(self) -> int:
        with self._lock:
            return len(self._steps)

    def total_times(self) -> list[float]:
        with self._lock:
            return [step.total_ms for step in self._steps]

    def average_response_ms(self) -> float:
        """The paper's headline metric: average response time per step."""
        times = self.total_times()
        if not times:
            return 0.0
        return sum(times) / len(times)

    def component_averages(self) -> dict[str, float]:
        """Average of each latency component across steps."""
        steps = self.steps
        if not steps:
            return {"query_ms": 0.0, "network_ms": 0.0, "render_ms": 0.0}
        n = len(steps)
        return {
            "query_ms": sum(s.query_ms for s in steps) / n,
            "network_ms": sum(s.network_ms for s in steps) / n,
            "render_ms": sum(s.render_ms for s in steps) / n,
        }

    def cache_hit_rate(self) -> float:
        """Fraction of steps served entirely from a cache."""
        steps = self.steps
        if not steps:
            return 0.0
        hits = sum(1 for s in steps if s.cache_hit)
        return hits / len(steps)

    def total_requests(self) -> int:
        return sum(s.requests for s in self.steps)

    def total_objects(self) -> int:
        return sum(s.objects_fetched for s in self.steps)

    def total_bytes(self) -> int:
        return sum(s.bytes_fetched for s in self.steps)
