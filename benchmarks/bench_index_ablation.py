"""Ablation E6: the two database designs of Section 3.1 at a fixed tile size.

Compares answering 1024-pixel tile requests through the spatial design (bbox
column + R-tree probe) against the tuple–tile mapping design (B-tree lookup
on ``tile_id`` joined to the record table on ``tuple_id``).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import replay
from repro.server.schemes import tile_mapping_scheme, tile_spatial_scheme

TILE_SIZE = 1024
DESIGNS = {
    "spatial": tile_spatial_scheme(TILE_SIZE),
    "mapping": tile_mapping_scheme(TILE_SIZE),
}


@pytest.mark.parametrize("trace_name", ["a", "b", "c"])
@pytest.mark.parametrize("design", list(DESIGNS))
def test_database_design(benchmark, uniform_stack, uniform_traces, design, trace_name):
    scheme = DESIGNS[design]
    trace = uniform_traces[trace_name]

    def run_once():
        return replay(uniform_stack, scheme, trace.positions).average_response_ms

    average_ms = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["design"] = design
    benchmark.extra_info["trace"] = trace_name
    benchmark.extra_info["avg_response_ms_per_step"] = round(average_ms, 2)
    assert average_ms < 500.0
