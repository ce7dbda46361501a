"""Ablation E7: caching and momentum prefetching on top of dynamic boxes.

Section 3.1 notes Kyrix keeps a frontend and a backend cache; Section 4
plans momentum-based prefetching for dynamic boxes.  This benchmark measures
a back-and-forth pan trace under three variants: caches off, caches on, and
caches plus momentum prefetching.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import prefetch_cache_ablation

VARIANTS = ("no-cache", "cache", "cache+momentum")


@pytest.mark.parametrize("variant", VARIANTS)
def test_cache_prefetch_variant(benchmark, uniform_stack, variant):
    def run_once():
        return prefetch_cache_ablation(stack=uniform_stack, trace_name="a")[variant]

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["avg_response_ms_per_step"] = round(result.average_response_ms, 2)
    benchmark.extra_info["cache_hit_rate"] = round(result.metrics.cache_hit_rate(), 3)
    benchmark.extra_info["prefetch_requests"] = result.prefetch_requests
    assert result.average_response_ms < 500.0


def test_prefetching_issues_requests_and_caching_hits(uniform_stack):
    results = prefetch_cache_ablation(stack=uniform_stack)
    assert results["cache+momentum"].prefetch_requests > 0
    assert (
        results["cache"].metrics.cache_hit_rate()
        >= results["no-cache"].metrics.cache_hit_rate()
    )
