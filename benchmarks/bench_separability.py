"""Ablation E8: the separability optimisation of Section 3.2.

When object placement reads raw x/y attributes directly, Kyrix can skip
placement precomputation and query the raw table's spatial index.  This
benchmark measures the setup (precompute) cost of the separable shortcut
versus full placement precomputation, and checks that query latency is
unaffected.
"""

from __future__ import annotations

import pytest

from repro.bench.apps import build_dots_backend, default_config
from repro.bench.experiments import dataset_for_scale, replay
from repro.datagen.traces import paper_traces
from repro.server.schemes import dbox_scheme


@pytest.mark.parametrize("variant", ["separable", "precomputed"])
def test_setup_cost(benchmark, variant):
    """Time building the whole backend (load + precompute) per variant."""
    spec = dataset_for_scale("uniform", "tiny")

    def build():
        return build_dots_backend(
            spec,
            config=default_config(),
            precompute_placement=(variant == "precomputed"),
        )

    stack = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["variant"] = variant
    # Both variants must answer queries with the same latency profile.
    traces = paper_traces(spec.canvas_width, spec.canvas_height)
    result = replay(stack, dbox_scheme(), traces["a"].positions)
    benchmark.extra_info["avg_response_ms_per_step"] = round(result.average_response_ms, 2)
    assert result.average_response_ms < 500.0
