"""Figure 7: average response time per fetching scheme on the Skewed dataset.

Identical measurement loop to Figure 6 but over the Skewed dataset (80 % of
the dots in 20 % of the canvas area), where the paper expects dynamic boxes
to widen their lead because they "can adjust their sizes and locations based
on data sparsity".
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import figure7, replay
from repro.server.schemes import paper_schemes

SCHEMES = {scheme.name: scheme for scheme in paper_schemes()}


@pytest.mark.parametrize("trace_name", ["a", "b", "c"])
@pytest.mark.parametrize("scheme_name", list(SCHEMES))
def test_figure7_response_time(benchmark, skewed_stack, skewed_traces, scheme_name, trace_name):
    """One bar of Figure 7: ``scheme_name`` on trace ``trace_name``."""
    scheme = SCHEMES[scheme_name]
    trace = skewed_traces[trace_name]

    def run_once():
        return replay(skewed_stack, scheme, trace.positions).average_response_ms

    average_ms = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["dataset"] = "skewed"
    benchmark.extra_info["scheme"] = scheme_name
    benchmark.extra_info["trace"] = trace_name
    benchmark.extra_info["avg_response_ms_per_step"] = round(average_ms, 2)
    assert average_ms < 500.0


def test_figure7_dbox_beats_every_tile_scheme_overall(skewed_stack):
    """The figure's shape on what does not depend on the box's speed.

    Dynamic boxes pay one round trip per step for exactly the viewport's
    objects; 256-pixel tiles pay the round trip many times over and
    4096-pixel tiles move objects the viewport never shows.  True at every
    ``REPRO_BENCH_SCALE``; a stopwatch ordering is not (at ``tiny`` a step is
    mostly the modelled round trip, which big tiles amortise).
    """
    figure = figure7(stack=skewed_stack, schemes=list(SCHEMES.values()))
    for (scheme, trace), dbox in figure.items():
        if scheme != "dbox":
            continue
        assert dbox.total_requests() == dbox.steps
        for tile_scheme in (name for name in SCHEMES if name.startswith("tile")):
            tiles = figure[(tile_scheme, trace)]
            assert dbox.total_objects() <= tiles.total_objects()
            if tile_scheme.endswith(" 256"):
                assert tiles.total_requests() >= 8 * dbox.total_requests()
            if tile_scheme.endswith(" 4096"):
                assert tiles.total_objects() >= 8 * dbox.total_objects()
