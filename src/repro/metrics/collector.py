"""Per-interaction latency accounting.

Every user interaction (a pan step or a jump) produces one
:class:`LatencyBreakdown`.  The :class:`MetricsCollector` accumulates them and
computes the summary statistics the paper reports (average response time per
step), plus percentiles useful for checking the 500 ms interactivity budget.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence


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


@dataclass
class SummaryStats:
    """Summary statistics over a sequence of per-step response times.

    Percentiles use nearest-rank semantics (see :func:`percentile`); the
    tail fields ``p99``/``p999`` default to 0.0 so older call sites and
    serialized summaries remain valid.
    """

    count: int
    mean: float
    median: float
    p95: float
    minimum: float
    maximum: float
    stddev: float
    p99: float = 0.0
    p999: float = 0.0

    def within_budget(self, budget_ms: float) -> bool:
        """Check the paper's interactivity requirement against the p95."""
        return self.p95 <= budget_ms


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence.

    The nearest-rank definition: the p-th percentile of ``n`` samples is
    the value at (1-indexed) rank ``max(1, ceil(p * n))``.  Unlike linear
    interpolation it always returns an *observed* sample, is exact on
    small ``n`` (the median of 1..100 is 50, its p95 is 95), and is the
    single definition shared by bench ``summarize`` rows and the telemetry
    histograms behind ``GET /metrics`` — the two surfaces agree by
    construction, not by coincidence.
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sequence")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` for an iterable of latencies.

    All percentiles (median, p95, p99, p999) are nearest-rank — see
    :func:`percentile` for the exact semantics.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot summarise an empty latency sequence")
    count = len(data)
    mean = sum(data) / count
    variance = sum((v - mean) ** 2 for v in data) / count
    return SummaryStats(
        count=count,
        mean=mean,
        median=percentile(data, 0.5),
        p95=percentile(data, 0.95),
        minimum=data[0],
        maximum=data[-1],
        stddev=math.sqrt(variance),
        p99=percentile(data, 0.99),
        p999=percentile(data, 0.999),
    )


class MetricsCollector:
    """Accumulates :class:`LatencyBreakdown` records for a session or run.

    Recording is thread-safe: a collector may be shared by concurrent
    sessions, so appends and counter bumps hold a lock.  Readers take a
    consistent snapshot under the same lock.
    """

    def __init__(self) -> None:
        self._steps: list[LatencyBreakdown] = []
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def record(self, breakdown: LatencyBreakdown) -> None:
        """Append one interaction step's breakdown."""
        with self._lock:
            self._steps.append(breakdown)

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named counter (cache hits, prefetch issues, ...)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def reset(self) -> None:
        with self._lock:
            self._steps.clear()
            self.counters.clear()

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

    def summary(self) -> SummaryStats:
        """Summary statistics of total per-step response time."""
        return summarize(self.total_times())

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
