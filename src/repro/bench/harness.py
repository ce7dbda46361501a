"""The experiment harness: schemes x datasets x traces -> response times.

This module reproduces the measurement loop of Section 3.3: for a dataset
and a viewport-movement trace, replay the trace once per fetching scheme
with a fresh frontend (cold caches), and record the average response time
per pan step.  The harness also collects secondary quantities the paper
reasons about — requests issued, objects fetched, bytes transferred — which
the footprint experiment (Figure 4) reports directly.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Sequence

from ..client.frontend import KyrixFrontend
from ..client.session import ExplorationSession
from ..config import KyrixConfig
from ..datagen.traces import Trace
from ..metrics.collector import SummaryStats, summarize
from ..server.cache import LRUCache
from ..server.prefetch import Prefetcher
from ..server.schemes import FetchScheme
from ..serving.base import stack_layers
from .apps import DotsStack


@dataclass
class SchemeResult:
    """Result of running one scheme over one trace."""

    scheme: str
    dataset: str
    trace: str
    steps: int
    average_response_ms: float
    summary: SummaryStats
    query_ms: float
    network_ms: float
    requests: int
    objects: int
    bytes_fetched: int
    cache_hit_rate: float

    def row(self) -> dict[str, float | str | int]:
        """Flat dictionary form used by the report tables."""
        return {
            "scheme": self.scheme,
            "dataset": self.dataset,
            "trace": self.trace,
            "steps": self.steps,
            "avg_ms": round(self.average_response_ms, 2),
            "p95_ms": round(self.summary.p95, 2),
            "query_ms": round(self.query_ms, 2),
            "network_ms": round(self.network_ms, 2),
            "requests": self.requests,
            "objects": self.objects,
            "kilobytes": round(self.bytes_fetched / 1024.0, 1),
        }


@dataclass
class ExperimentResult:
    """All scheme results for one dataset (one paper figure)."""

    name: str
    dataset: str
    results: list[SchemeResult] = field(default_factory=list)

    def by_trace(self, trace: str) -> list[SchemeResult]:
        return [r for r in self.results if r.trace == trace]

    def by_scheme(self, scheme: str) -> list[SchemeResult]:
        return [r for r in self.results if r.scheme == scheme]

    def best_scheme_per_trace(self) -> dict[str, str]:
        """The fastest scheme on each trace (who 'wins' in the figure)."""
        winners: dict[str, str] = {}
        for trace in sorted({r.trace for r in self.results}):
            candidates = self.by_trace(trace)
            winner = min(candidates, key=lambda r: r.average_response_ms)
            winners[trace] = winner.scheme
        return winners

    def scheme_average(self, scheme: str) -> float:
        """Mean of the per-trace averages for one scheme."""
        results = self.by_scheme(scheme)
        if not results:
            raise KeyError(f"no results for scheme {scheme!r}")
        return sum(r.average_response_ms for r in results) / len(results)


def _serving_caches(stack: DotsStack) -> list[LRUCache]:
    """Every server-side response cache on the stack's serving path."""
    return [
        layer.cache
        for layer in stack_layers(stack.service)
        if getattr(layer, "cache", None) is not None
    ]


def _reset_serving_caches(stack: DotsStack) -> None:
    """Cold-start the server side of the stack: empty caches, zeroed counters."""
    for cache in _serving_caches(stack):
        cache.clear()
        cache.stats.reset()


def run_scheme_on_trace(
    stack: DotsStack,
    scheme: FetchScheme,
    trace: Trace,
    *,
    config: KyrixConfig | None = None,
    prefetcher: Prefetcher | None = None,
    render: bool = False,
) -> SchemeResult:
    """Replay ``trace`` with ``scheme`` against a fresh frontend.

    The backend cache persists across schemes only if the caller reuses the
    same stack *and* leaves it warm; the paper's numbers are per-run
    averages over cold frontends, so each call builds a new frontend and
    clears the serving-side caches first.  The frontend talks to the
    stack's composed :class:`~repro.serving.base.DataService`
    (``stack.service``) — the cluster router when the stack was built with
    ``config.cluster.enabled``, the cached backend otherwise.
    """
    _reset_serving_caches(stack)
    # Collect pending garbage before the timed replay: the cache clears
    # above (and whatever the surrounding process did before calling in)
    # otherwise leave a full young generation behind, and the cyclic
    # collector then runs *inside* the first few timed steps.  A gen-2
    # pause on a large heap is tens of milliseconds — enough to invert a
    # scheme comparison on the tiny test scale.
    gc.collect()
    frontend = KyrixFrontend(
        stack.service,
        scheme,
        config=config or stack.backend.config,
        prefetcher=prefetcher,
        render=render,
    )
    session = ExplorationSession(frontend)
    result = session.run_trace(stack.canvas_id, list(trace.positions))
    metrics = result.metrics
    components = metrics.component_averages()
    summary = summarize(metrics.total_times()) if len(metrics) else summarize([0.0])
    return SchemeResult(
        scheme=scheme.name,
        dataset=stack.spec.name,
        trace=trace.name,
        steps=result.steps,
        average_response_ms=result.average_response_ms,
        summary=summary,
        query_ms=components["query_ms"],
        network_ms=components["network_ms"],
        requests=metrics.total_requests(),
        objects=metrics.total_objects(),
        bytes_fetched=metrics.total_bytes(),
        cache_hit_rate=metrics.cache_hit_rate(),
    )


def run_experiment(
    stack: DotsStack,
    schemes: Sequence[FetchScheme],
    traces: Sequence[Trace],
    *,
    name: str = "experiment",
    config: KyrixConfig | None = None,
    repetitions: int = 1,
) -> ExperimentResult:
    """Run every scheme over every trace ``repetitions`` times and average.

    The paper reports averages over three runs; the default here is one
    repetition to keep the default benchmark wall time modest (the
    pytest-benchmark targets add their own repetition on top).
    """
    experiment = ExperimentResult(name=name, dataset=stack.spec.name)
    for scheme in schemes:
        for trace in traces:
            runs = [
                run_scheme_on_trace(stack, scheme, trace, config=config)
                for _ in range(max(1, repetitions))
            ]
            merged = runs[0]
            if len(runs) > 1:
                merged = SchemeResult(
                    scheme=merged.scheme,
                    dataset=merged.dataset,
                    trace=merged.trace,
                    steps=merged.steps,
                    average_response_ms=sum(r.average_response_ms for r in runs) / len(runs),
                    summary=merged.summary,
                    query_ms=sum(r.query_ms for r in runs) / len(runs),
                    network_ms=sum(r.network_ms for r in runs) / len(runs),
                    requests=runs[0].requests,
                    objects=runs[0].objects,
                    bytes_fetched=runs[0].bytes_fetched,
                    cache_hit_rate=sum(r.cache_hit_rate for r in runs) / len(runs),
                )
            experiment.results.append(merged)
    return experiment
