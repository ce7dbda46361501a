"""Fixed-bucket latency histograms and the process-wide telemetry registry.

Histograms serve two audiences with one data structure:

* **Prometheus scrapes** read the cumulative fixed-bucket counts
  (``_bucket{le=...}`` / ``_sum`` / ``_count``) rendered by
  :meth:`TelemetryRegistry.render_prometheus`.
* **Humans** read exact nearest-rank percentiles (p50/p95/p99/p999)
  computed with :func:`percentile` over a bounded ring of retained raw
  samples — the same numbers in a snapshot and in the ``/metrics``
  quantile gauges.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Iterable, Sequence

#: Cumulative upper bounds in milliseconds, chosen to straddle the paper's
#: 500 ms interactivity budget with sub-millisecond resolution at the
#: cache-hit end and multi-second resolution at the disaster end.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Percentiles exposed everywhere: snapshots and /metrics gauges.
PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence.

    The p-th percentile of ``n`` samples is the value at (1-indexed) rank
    ``max(1, ceil(p * n))``.  Unlike linear interpolation it always returns
    an *observed* sample and is exact on small ``n`` (the median of 1..100
    is 50, its p95 is 95).
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sequence")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class Histogram:
    """Thread-safe latency histogram: fixed buckets + bounded sample ring."""

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_samples", "_lock")

    def __init__(
        self,
        buckets: Iterable[float] | None = None,
        *,
        sample_limit: int = 2048,
    ) -> None:
        self.buckets = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS_MS
        self._counts = [0] * (len(self.buckets) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        #: Newest raw observations, for exact small-n percentiles.  A ring
        #: (not a reservoir) because interactive workloads care about the
        #: *recent* tail, and benchmark runs fit entirely inside it.
        self._samples: deque[float] = deque(maxlen=sample_limit)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantiles(self) -> dict[str, float]:
        """Exact nearest-rank :data:`PERCENTILES` over the retained sample
        ring (all 0.0 while it is empty)."""
        with self._lock:
            data = sorted(self._samples)
        return {
            label: percentile(data, fraction) if data else 0.0
            for label, fraction in PERCENTILES
        }

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, total)``."""
        with self._lock:
            counts = list(self._counts)
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + counts[-1]))
        return pairs

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            count = self._count
            total = self._sum
        snap: dict[str, float] = {
            "count": float(count),
            "sum_ms": round(total, 3),
            "mean_ms": round(total / count, 3) if count else 0.0,
        }
        for label, value in self.quantiles().items():
            snap[label] = round(value, 3)
        return snap


class TelemetryRegistry:
    """Process-wide map of span name -> duration histogram."""

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            return histogram

    def observe_span(self, name: str, duration_ms: float) -> None:
        self.histogram(name).observe(duration_ms)

    def reset(self) -> None:
        with self._lock:
            self._histograms = {}

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{span_name: {count, sum_ms, mean_ms, p50, p95, p99, p999}}``."""
        with self._lock:
            items = sorted(self._histograms.items())
        return {name: histogram.snapshot() for name, histogram in items}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (v0.0.4) of every span histogram."""
        lines = [
            "# HELP kyrix_span_duration_ms Span duration by serving layer.",
            "# TYPE kyrix_span_duration_ms histogram",
        ]
        with self._lock:
            items = sorted(self._histograms.items())
        for name, histogram in items:
            label = name.replace("\\", "\\\\").replace('"', '\\"')
            for bound, cumulative in histogram.bucket_counts():
                le = "+Inf" if bound == float("inf") else format(bound, "g")
                lines.append(
                    f'kyrix_span_duration_ms_bucket{{span="{label}",le="{le}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'kyrix_span_duration_ms_sum{{span="{label}"}} '
                f"{histogram.sum:.6f}"
            )
            lines.append(
                f'kyrix_span_duration_ms_count{{span="{label}"}} {histogram.count}'
            )
        lines.append(
            "# HELP kyrix_span_duration_ms_quantile Nearest-rank percentile "
            "over recent samples."
        )
        lines.append("# TYPE kyrix_span_duration_ms_quantile gauge")
        for name, histogram in items:
            label = name.replace("\\", "\\\\").replace('"', '\\"')
            for quantile_label, value in histogram.quantiles().items():
                lines.append(
                    f"kyrix_span_duration_ms_quantile"
                    f'{{span="{label}",quantile="{quantile_label}"}} {value:.6f}'
                )
        return "\n".join(lines) + "\n"
