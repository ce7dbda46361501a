"""End-to-end integration tests of the example applications.

These import the example modules directly (they live in ``examples/`` at the
repository root) and drive them the way a user would, asserting the
interactions complete within the paper's interactivity budget and produce
sensible data.
"""

import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
if str(EXAMPLES_DIR) not in sys.path:
    sys.path.insert(0, str(EXAMPLES_DIR))

import rebalance_cluster  # noqa: E402
import replica_cluster  # noqa: E402
import worker_cluster  # noqa: E402
from eeg_explorer import build_eeg_application  # noqa: E402
from fetching_comparison import print_figure  # noqa: E402
from usmap_crime import build_usmap_application  # noqa: E402

from repro.client import KyrixFrontend  # noqa: E402
from repro.client.session import SessionResult  # noqa: E402
from repro.compiler import compile_application  # noqa: E402
from repro.config import INTERACTIVITY_BUDGET_MS  # noqa: E402
from repro.datagen import EEGSpec, USMapSpec  # noqa: E402
from repro.metrics.collector import LatencyBreakdown, MetricsCollector  # noqa: E402
from repro.server import dbox50_scheme, dbox_scheme  # noqa: E402
from repro.serving import build_service  # noqa: E402


@pytest.fixture(scope="module")
def usmap_frontend():
    app, database = build_usmap_application(USMapSpec())
    compiled = compile_application(app)
    service = build_service(app.config, database=database, compiled=compiled)
    return KyrixFrontend(service, dbox50_scheme(), render=True)


@pytest.fixture(scope="module")
def eeg_frontend():
    spec = EEGSpec(channels=2, sample_rate_hz=32.0, duration_s=120.0)
    app, database = build_eeg_application(spec)
    compiled = compile_application(app)
    service = build_service(app.config, database=database, compiled=compiled)
    return KyrixFrontend(service, dbox_scheme(), render=True)


class TestUSMapApplication:
    def test_spec_compiles_without_issues(self):
        app, _ = build_usmap_application(USMapSpec())
        compiled = compile_application(app)
        assert set(compiled.canvases) == {"statemap", "countymap"}
        # Both dynamic layers require placement precomputation (their
        # placement reads cx/cy which are not flagged separable).
        assert compiled.layer_plan("statemap", 1).placement_table is not None

    def test_initial_state_map_load(self, usmap_frontend):
        breakdown = usmap_frontend.load_initial_canvas()
        assert usmap_frontend.current_canvas_id == "statemap"
        assert breakdown.objects_fetched > 0
        assert breakdown.total_ms < INTERACTIVITY_BUDGET_MS
        assert usmap_frontend.renderer.nonzero_pixels() > 0

    def test_click_state_jumps_to_county_map(self, usmap_frontend):
        usmap_frontend.load_initial_canvas()
        state = usmap_frontend.visible_objects[1][0]
        jumps = usmap_frontend.available_jumps(state, layer_index=1)
        assert len(jumps) == 1
        assert jumps[0][1].startswith("County map of State-")
        breakdown = usmap_frontend.click(state, layer_index=1)
        assert usmap_frontend.current_canvas_id == "countymap"
        assert breakdown.total_ms < INTERACTIVITY_BUDGET_MS
        # The destination viewport is centred on the clicked state (x5 zoom).
        center = usmap_frontend.viewport.center
        assert center[0] == pytest.approx(state["cx"] * 5, abs=1.0)
        assert center[1] == pytest.approx(state["cy"] * 5, abs=1.0)
        # Counties fetched around that point belong to nearby states.
        counties = usmap_frontend.visible_objects[1]
        assert counties

    def test_legend_layer_does_not_trigger_jump(self, usmap_frontend):
        usmap_frontend.load_initial_canvas()
        state = usmap_frontend.visible_objects[1][0]
        assert usmap_frontend.available_jumps(state, layer_index=0) == []

    def test_pan_on_county_map_stays_interactive(self, usmap_frontend):
        usmap_frontend.load_initial_canvas()
        state = usmap_frontend.visible_objects[1][0]
        usmap_frontend.click(state, layer_index=1)
        breakdown = usmap_frontend.pan_by(2048, 0)
        assert breakdown.total_ms < INTERACTIVITY_BUDGET_MS


class TestEEGApplication:
    def test_spectral_overview_loads(self, eeg_frontend):
        breakdown = eeg_frontend.load_initial_canvas()
        assert eeg_frontend.current_canvas_id == "spectral"
        assert breakdown.objects_fetched > 0
        assert breakdown.total_ms < INTERACTIVITY_BUDGET_MS

    def test_epoch_click_zooms_into_raw_traces(self, eeg_frontend):
        eeg_frontend.load_initial_canvas()
        epoch = eeg_frontend.visible_objects[1][0]
        breakdown = eeg_frontend.click(epoch, layer_index=1)
        assert eeg_frontend.current_canvas_id == "temporal"
        assert breakdown.objects_fetched > 0
        samples = eeg_frontend.visible_objects[1]
        # The raw samples shown fall inside the viewport's time range.
        viewport = eeg_frontend.viewport
        for sample in samples[:50]:
            assert viewport.x - 1 <= sample["px"] <= viewport.x + viewport.width + 1

    def test_panning_raw_traces(self, eeg_frontend):
        eeg_frontend.load_initial_canvas()
        epoch = eeg_frontend.visible_objects[1][0]
        eeg_frontend.click(epoch, layer_index=1)
        breakdown = eeg_frontend.pan_by(1000, 0)
        assert breakdown.total_ms < INTERACTIVITY_BUDGET_MS
        assert eeg_frontend.average_response_ms() < INTERACTIVITY_BUDGET_MS


class TestFetchingComparison:
    """``examples/fetching_comparison.py`` renders a figure dict as text."""

    @staticmethod
    def _result(average_ms: float, requests: int, objects: int) -> SessionResult:
        step = LatencyBreakdown(query_ms=average_ms, requests=requests, objects_fetched=objects)
        return SessionResult(steps=1, average_response_ms=average_ms,
                             metrics=MetricsCollector([step]))

    def test_one_row_per_pair_and_the_fastest_scheme_per_trace(self, capsys):
        figure = {
            ("dbox", "a"): self._result(5.0, 3, 30),
            ("tile spatial 1024", "a"): self._result(9.0, 6, 45),
            ("dbox", "b"): self._result(7.0, 3, 33),
            ("tile spatial 1024", "b"): self._result(6.0, 4, 40),
        }
        print_figure("Figure 6", figure)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Figure 6"
        rows = [line.split() for line in lines[2:6]]
        assert [row[-4:] for row in rows] == [
            ["a", "5.00", "3", "30"], ["a", "9.00", "6", "45"],
            ["b", "7.00", "3", "33"], ["b", "6.00", "4", "40"],
        ]
        assert lines[6:8] == [
            "  trace a: fastest is dbox", "  trace b: fastest is tile spatial 1024",
        ]


class TestClusterExamples:
    """The narrated cluster walkthroughs run end to end: every request is
    served, no payload changes across a swap, a failover or a topology, and
    no worker process outlives ``close()``."""

    def test_manual_rebalance_keeps_every_payload(self, capsys):
        assert rebalance_cluster.main() == 0
        assert "payload mismatches during the swap: 0" in capsys.readouterr().out

    def test_replica_failover_serves_every_request_unchanged(self, capsys):
        assert replica_cluster.main() == 0
        out = capsys.readouterr().out
        assert "payload mismatches against the healthy pan: 0" in out
        assert "shard 0 replica 0 breaker: open" in out

    def test_process_workers_serve_through_a_kill_and_drain(self, capsys):
        assert worker_cluster.main() == 0
        out = capsys.readouterr().out
        assert "payload mismatches through the kill: 0" in out
        assert "shard0/replica0 breaker: open" in out
