"""Figure 6: average response time per fetching scheme on the Uniform dataset.

Each benchmark replays one viewport-movement trace (Figure 5's a, b or c)
with one of the eight fetching schemes of Section 3.3 and reports the
*average response time per pan step* — the quantity on the y-axis of
Figure 6.  The pytest-benchmark table therefore reads as the figure's bars:
one row per (scheme, trace) pair.

Run with::

    pytest benchmarks/bench_figure6_uniform.py --benchmark-only
    REPRO_BENCH_SCALE=bench pytest benchmarks/bench_figure6_uniform.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import replay
from repro.server.schemes import paper_schemes

SCHEMES = {scheme.name: scheme for scheme in paper_schemes()}


@pytest.mark.parametrize("trace_name", ["a", "b", "c"])
@pytest.mark.parametrize("scheme_name", list(SCHEMES))
def test_figure6_response_time(benchmark, uniform_stack, uniform_traces, scheme_name, trace_name):
    """One bar of Figure 6: ``scheme_name`` on trace ``trace_name``."""
    scheme = SCHEMES[scheme_name]
    trace = uniform_traces[trace_name]

    def run_once():
        return replay(uniform_stack, scheme, trace.positions).average_response_ms

    average_ms = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["dataset"] = "uniform"
    benchmark.extra_info["scheme"] = scheme_name
    benchmark.extra_info["trace"] = trace_name
    benchmark.extra_info["avg_response_ms_per_step"] = round(average_ms, 2)
    # Sanity: every scheme must stay within the paper's interactivity budget
    # at reproduction scale.
    assert average_ms < 500.0
