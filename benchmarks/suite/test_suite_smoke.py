"""Tier-1 smoke test of the repository benchmark (tiny scale, a few seconds).

Runs all four workloads untraced and traced in this process and checks
what the driver and later PRs rely on: the names the suite emits are the
names ``BENCHMARK.json`` declares, answers verify, and the workloads
demonstrably exercise different layers.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

_SUITE = Path(__file__).resolve().parent
if str(_SUITE) not in sys.path:
    sys.path.insert(0, str(_SUITE))

from kyrixbench import catalog, report  # noqa: E402
from kyrixbench.harness import run_workload  # noqa: E402
from kyrixbench.workloads import TINY  # noqa: E402

CONTRACT = json.loads((_SUITE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, bool], dict]:
    return {
        (workload.name, trace): run_workload(
            workload.name, seed=11, seconds=0.05, trace=trace, scale=TINY
        )
        for workload in catalog.WORKLOADS
        for trace in (False, True)
    }


def test_contract_file_is_the_catalogue_written_out():
    assert CONTRACT == catalog.contract()
    assert CONTRACT["paths"] == ["benchmarks/suite"]


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])


def test_driver_lines_carry_exactly_the_declared_metrics(results):
    end_to_end = [m["name"] for m in CONTRACT["end_to_end"]]
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    for (_, trace), result in results.items():
        line = json.loads(report.contract_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == (per_layer if trace else end_to_end)
        assert line["attempted"] >= 1
        if not trace:
            assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_every_emitted_metric_is_declared_and_every_declared_one_is_emitted(results):
    declared = set(catalog.END_TO_END_NAMES) | set(catalog.PER_LAYER_NAMES)
    emitted = set()
    for result in results.values():
        assert set(result["metrics"]) <= declared
        emitted |= set(result["metrics"])
    assert emitted == declared


def test_answers_verify_on_every_workload(results):
    for result in results.values():
        assert result["correct"], result["errors"]
        assert result["failed"] == 0
        assert result["verified"] >= 20


def test_workloads_exercise_different_layers(results):
    for name in ("single_dbox", "single_tile256"):
        emitted = results[name, True]["metrics"]
        assert not [m for m in emitted if m.startswith(("net.", "cluster."))]
        assert "serving.transport_ms_per_shard_call" not in emitted
        assert "serving.router_cache_hit_ratio" not in emitted
    cold = results["cluster_cold", True]["metrics"]
    hot = results["cluster_hot", True]["metrics"]
    for metrics in (cold, hot):
        assert metrics["cluster.router_self_ms_per_request"] > 0
        assert metrics["net.wire_bytes_per_object"] > 0
        assert metrics["serving.transport_ms_per_shard_call"] > 0
    assert cold["serving.router_cache_hit_ratio"] == 0
    assert hot["serving.router_cache_hit_ratio"] > 0
    assert hot["client.cache_hit_ratio"] > 0
    assert "storage.btree_lookup_us_per_query" in results["single_tile256", True]["metrics"]
    assert "storage.rtree_search_us_per_query" in results["single_dbox", True]["metrics"]


def test_count_metrics_repeat_exactly_on_one_session_workloads(results):
    again = run_workload("single_dbox", seed=11, seconds=0.05, trace=False, scale=TINY)
    first = results["single_dbox", False]["metrics"]
    for name in ("client.requests_per_step", "client.objects_per_step", "server.rows_per_query"):
        assert again["metrics"][name] == first[name]
