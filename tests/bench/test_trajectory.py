"""The trajectory writer: predicted vs measured, and the page generated from the newest entry."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def test_performance_page_is_the_newest_entry_rendered():
    """``docs/performance.md`` is generated, so it may not drift from ``BENCH_<pr>.json``.

    Regenerate with ``python3 benchmarks/trajectory.py --markdown docs/performance.md``.
    """
    page = trajectory.render_markdown(trajectory.newest_entry())
    assert (ROOT / "docs" / "performance.md").read_text() == page


def _run(step_ms: float, transport_ms: float | None = None) -> dict:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: 1.0 for metric in contract["end_to_end"]}
    metrics["step_ms_mean"] = step_ms
    if transport_ms is not None:
        metrics["serving.transport_ms_per_shard_call"] = transport_ms
        metrics["wire_bytes_per_step"] = 45895.665
    return {"runs": {w["name"]: {"metrics": dict(metrics)} for w in contract["workloads"]}}


def test_an_entry_stores_the_prediction_beside_what_was_measured(tmp_path):
    for pair, (before, after) in enumerate([(10.0, 7.0), (9.0, 7.5), (11.0, 7.2)], start=1):
        (tmp_path / f"parent_{pair}.json").write_text(json.dumps(_run(before)))
        (tmp_path / f"change_{pair}.json").write_text(json.dumps(_run(after)))
    (tmp_path / "parent_trace_cluster_cold.json").write_text(json.dumps(_run(10.0, 1.6)))
    (tmp_path / "change_trace_cluster_cold.json").write_text(json.dumps(_run(7.0, 0.8)))
    predicted = [
        {"workload": "cluster_cold", "metric": "step_ms_mean", "ratio": [0.7, 0.8]},
        {"workload": "cluster_cold", "metric": "serving.transport_ms_per_shard_call",
         "ratio": [0.0, 0.4]},
        {"workload": "cluster_cold", "metric": "wire_bytes_per_step", "ratio": [1.0, 1.0]},
    ]
    entry = trajectory.build_entry(tmp_path, 99, "abc1234", predicted)
    end_to_end, per_layer, count = entry["predicted"]
    # An end-to-end metric is read from the pairs' medians, a per-layer one from the traces.
    assert (end_to_end["parent"], end_to_end["change"]) == (10.0, 7.2)
    assert end_to_end["within"] and end_to_end["measured_ratio"] == 0.72
    assert (per_layer["parent"], per_layer["change"]) == (1.6, 0.8)
    assert not per_layer["within"]  # half, where 0.4 was promised
    assert count["within"] and count["measured_ratio"] == 1.0
    assert entry["verdicts"]["cluster_cold"]["step_ms_mean"]["gain_by_the_rule"]

    (tmp_path / "BENCH_99.json").write_text(json.dumps(entry, sort_keys=True))
    (tmp_path / "BENCH_100.json").write_text(json.dumps({**entry, "pr": 100}, sort_keys=True))
    assert trajectory.newest_entry(tmp_path).name == "BENCH_100.json"
    page = trajectory.render_markdown(tmp_path / "BENCH_99.json")
    assert "| cluster_cold | `step_ms_mean` | 0.7 … 0.8 | 10 | 7.2 | 0.72 | yes |" in page
    assert "| `wire_bytes_per_step` | 45895.665 | 45895.665 | same |" in page
