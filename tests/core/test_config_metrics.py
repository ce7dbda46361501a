"""Tests for configuration objects and the metrics utilities."""

import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from repro.config import (
    AutopilotConfig,
    CacheConfig,
    ClusterConfig,
    INTERACTIVITY_BUDGET_MS,
    KyrixConfig,
    NetworkConfig,
    PrefetchConfig,
    StorageConfig,
    TelemetryConfig,
)
from repro.errors import KyrixError
from repro.metrics.collector import LatencyBreakdown, MetricsCollector
from repro.metrics.timer import VirtualClock


INVALID_VALUES = [
    {"app_name": ""},
    {"viewport_width": 0},
    {"storage": {"page_size": 10}},
    {"storage": {"page_size": 65_536}},
    {"network": {"bandwidth_mbps": 0}},
    {"prefetch": {"strategy": "psychic"}},
    # ``enabled`` is the one off-switch; "none" is not a strategy.
    {"prefetch": {"strategy": "none"}},
    {"cache": {"backend_entries": -1}},
]
#: Outside input (a ``config.txt``) that is not shaped like a configuration:
#: unknown keys — a knob deleted since the file was saved included —
#: non-mapping sections and wrong-typed scalars.
MALFORMED_INPUT = [
    {"cluster": {"nope": 1}},
    {"nope": 1},
    {"cluster": {"autopilot": {"nope": 1}}},
    {"cluster": {"autopilot": 5}},
    {"cluster": {"shard_count": "4"}},
    {"interactivity_budget_ms": 500.0},
    # The pager's latency model went in PR 23; a saved file naming it fails loudly.
    {"storage": {"simulate_io": True}},
    # Every trace is recorded when tracing is on; there is no sampling knob.
    {"telemetry": {"sample_rate": 0.5}},
]


class TestConfig:
    def test_defaults_validate(self):
        KyrixConfig().validate()

    def test_interactivity_budget_is_500ms(self):
        assert INTERACTIVITY_BUDGET_MS == 500.0

    def test_round_trip_dict(self):
        config = KyrixConfig(app_name="demo", viewport_width=640)
        config.network.rtt_ms = 7.5
        restored = KyrixConfig.from_dict(config.to_dict())
        assert restored.app_name == "demo"
        assert restored.viewport_width == 640
        assert restored.network.rtt_ms == 7.5

    def test_round_trip_json_and_file(self, tmp_path):
        config = KyrixConfig(app_name="demo")
        path = tmp_path / "config.json"
        config.save(path)
        restored = KyrixConfig.from_file(path)
        assert restored.app_name == "demo"
        assert json.loads(config.to_json())["app_name"] == "demo"

    def test_partial_dict_uses_defaults(self):
        config = KyrixConfig.from_dict({"app_name": "x", "cache": {"enabled": False}})
        assert config.cache.enabled is False
        assert config.network.rtt_ms == NetworkConfig().rtt_ms

    @pytest.mark.parametrize("bad", INVALID_VALUES + MALFORMED_INPUT)
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(KyrixError) as caught:
            KyrixConfig.from_dict(bad)
        if bad in MALFORMED_INPUT:
            # The error names the offending ``section.key`` path.
            path = []
            while isinstance(bad, dict):
                (key, bad), = bad.items()
                path.append(key)
            assert repr(".".join(path)) in str(caught.value)

    def test_an_oversized_page_is_refused_by_name_and_a_maximal_one_works(self):
        # Was: accepted, then a bare ``struct.error`` from the first insert.
        with pytest.raises(KyrixError, match=r"storage\.page_size.*65535"):
            KyrixConfig.from_dict({"storage": {"page_size": 65_536}})
        from repro.storage.database import Database

        config = KyrixConfig.from_dict({"storage": {"page_size": 65_535}})
        table = Database(config.storage).create_table("t", [("v", "int")])
        assert table.fetch(table.insert((1,))) == (1,)

    @pytest.mark.parametrize(
        "heading, section",
        [
            ("cluster.*", ClusterConfig()),
            ("cluster.autopilot.*", AutopilotConfig()),
            ("telemetry.*", TelemetryConfig()),
        ],
    )
    def test_operations_reference_matches_the_dataclasses(self, heading, section):
        """Both directions: every field has a ``docs/operations.md`` row with
        its real default, and no row names a field that does not exist."""
        doc = Path(__file__).resolve().parents[2] / "docs" / "operations.md"
        table = doc.read_text().split(f"### `{heading}`", 1)[1].split("\n###", 1)[0]
        documented = {
            name: json.loads(default)
            for name, default in re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", table, re.M)
        }
        assert documented == {
            spec.name: getattr(section, spec.name)
            for spec in fields(section)
            if not is_dataclass(getattr(section, spec.name))
        }

    def test_storage_config_validation(self):
        with pytest.raises(KyrixError):
            StorageConfig(buffer_pool_pages=2).validate()

    def test_prefetch_config_validation(self):
        PrefetchConfig(strategy="momentum").validate()
        with pytest.raises(KyrixError):
            PrefetchConfig(strategy="none").validate()


class TestTimers:
    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        assert clock.now_ms == 0.0
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now_ms == 7.5

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_timer_module_exports_the_injectable_clock_only(self):
        import repro.metrics.timer as timer

        public = {
            name for name, value in vars(timer).items()
            if isinstance(value, type) and value.__module__ == timer.__name__
        }
        assert public == {"VirtualClock"}


class TestMetricsCollector:
    def _step(self, query=1.0, network=2.0, render=0.5, **kwargs):
        return LatencyBreakdown(
            query_ms=query, network_ms=network, render_ms=render, **kwargs
        )

    def test_total_ms(self):
        assert self._step().total_ms == 3.5

    def test_merge_accumulates(self):
        step = self._step(requests=1, objects_fetched=10, cache_hit=True)
        step.merge(self._step(requests=2, objects_fetched=5, cache_hit=False))
        assert step.requests == 3
        assert step.objects_fetched == 15
        assert step.cache_hit is False

    def test_average_and_total_times(self):
        collector = MetricsCollector()
        for query in (1.0, 2.0, 3.0):
            collector.record(self._step(query=query, network=0, render=0))
        assert collector.average_response_ms() == pytest.approx(2.0)
        assert collector.total_times() == [1.0, 2.0, 3.0]

    def test_component_averages(self):
        collector = MetricsCollector()
        collector.record(self._step(query=2.0, network=4.0, render=0.0))
        averages = collector.component_averages()
        assert averages["query_ms"] == 2.0
        assert averages["network_ms"] == 4.0

    def test_cache_hit_rate(self):
        collector = MetricsCollector()
        collector.record(self._step(cache_hit=True))
        collector.record(self._step(cache_hit=False))
        assert collector.cache_hit_rate() == 0.5

    def test_empty_collector(self):
        collector = MetricsCollector()
        assert collector.average_response_ms() == 0.0
        assert collector.cache_hit_rate() == 0.0
        assert collector.total_times() == []

    def test_a_collector_built_from_steps_owns_them(self):
        steps = [self._step(query=1.0), self._step(query=3.0)]
        collector = MetricsCollector(steps)
        steps.clear()
        assert len(collector) == 2
        assert collector.component_averages()["query_ms"] == 2.0
