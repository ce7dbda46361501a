"""Tests for configuration objects and the metrics utilities."""

import importlib
import inspect
import json
import multiprocessing
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from repro.config import (
    CacheConfig,
    ClusterConfig,
    INTERACTIVITY_BUDGET_MS,
    KyrixConfig,
    StorageConfig,
)
from repro.errors import KyrixError
from repro.metrics.collector import LatencyBreakdown, MetricsCollector
from repro.metrics.timer import VirtualClock


INVALID_VALUES = [
    {"viewport_width": 0},
    {"storage": {"page_size": 10}},
    {"storage": {"page_size": 65_536}},
    {"cache": {"backend_entries": -1}},
    # One row per remaining ``validate()`` branch, so a check that is
    # dropped by accident shows up here by name.
    {"viewport_height": -1},
    {"storage": {"buffer_pool_pages": 2}},
    {"cache": {"frontend_entries": -1}},
    {"cluster": {"shard_count": 0}},
    {"cluster": {"strategy": "hilbert"}},
    {"cluster": {"replicas": 0}},
    {"cluster": {"worker_mode": "fibers"}},
]
#: Outside input (a ``config.txt``) that is not shaped like a configuration:
#: unknown keys — a knob deleted since the file was saved included —
#: non-mapping sections and wrong-typed scalars.
MALFORMED_INPUT = [
    {"cluster": {"nope": 1}},
    {"nope": 1},
    {"storage": 5},
    {"cluster": {"shard_count": "4"}},
    {"interactivity_budget_ms": 500.0},
    # The pager's latency model went in PR 23; a saved file naming it fails loudly.
    {"storage": {"simulate_io": True}},
    # Every trace is recorded when tracing is on; there is no sampling knob.
    {"telemetry": {"sample_rate": 0.5}},
]
#: A saved ``config.txt`` carrying a key deleted since, keyed by the dotted
#: name its refusal must cite.  There are no aliases.
DELETED_KEYS = {
    "cluster.autopilot": {"cluster": {"autopilot": {"enabled": True}}},
    "cache.enabled": {"cache": {"enabled": False}},
    # The modelled hop is ``SimulatedLink``'s keyword defaults; a frontend
    # prefetches when it is handed a prefetcher; the name is the App's.
    "network": {"network": {"rtt_ms": 2.0, "bandwidth_mbps": 1000.0}},
    "prefetch": {"prefetch": {"strategy": "momentum"}},
    "app_name": {"app_name": "usmap"},
    # Breaker tuning is ``ReplicaService``'s keyword defaults; workers bind
    # ephemeral localhost ports.
    "cluster.breaker_threshold": {"cluster": {"breaker_threshold": 5}},
    "cluster.breaker_reset_s": {"cluster": {"breaker_reset_s": 10.0}},
    "cluster.worker_port_base": {"cluster": {"worker_port_base": 9000}},
    # A replica set always picks round-robin; there is no policy to name.
    "cluster.replica_policy": {"cluster": {"replica_policy": "round_robin"}},
}

#: The ``KyrixConfig`` sections, each one table of ``docs/operations.md``.
SECTIONS = [name for name, value in vars(KyrixConfig()).items() if is_dataclass(value)]

OPERATIONS_DOC = Path(__file__).resolve().parents[2] / "docs" / "operations.md"


def _not_a_knob_rows():
    """The rows of ``docs/operations.md``'s "What is not a knob" table:
    ``(names, module, values)`` with one value per name."""
    table = OPERATIONS_DOC.read_text().split("### What is not a knob", 1)[1]
    table = table.split("\n#", 1)[0]
    rows = re.findall(r"^\| (`.+?`) in `([\w/]+)\.py` \| (`.+?`) \|", table, re.M)
    return [
        pytest.param(
            re.findall(r"`([^`]+)`", names),
            "repro." + module.replace("/", "."),
            [json.loads(value) for value in re.findall(r"`([^`]+)`", values)],
            id="-".join(re.findall(r"`([^`]+)`", names)),
        )
        for names, module, values in rows
    ]


def _offending(bad):
    """The dotted key and the value of a one-key-per-level config row."""
    path = []
    while isinstance(bad, dict):
        (key, bad), = bad.items()
        path.append(key)
    return ".".join(path), bad


def _row_id(bad):
    key, value = _offending(bad)
    return f"{key}={json.dumps(value)}"


class TestConfig:
    def test_defaults_validate(self):
        KyrixConfig().validate()

    def test_interactivity_budget_is_500ms(self):
        assert INTERACTIVITY_BUDGET_MS == 500.0

    def test_round_trip_dict(self):
        config = KyrixConfig(viewport_width=640)
        config.cluster.shard_count = 2
        restored = KyrixConfig.from_dict(config.to_dict())
        assert restored.viewport_width == 640
        assert restored.cluster.shard_count == 2

    def test_round_trip_json_and_file(self, tmp_path):
        config = KyrixConfig(viewport_width=640)
        path = tmp_path / "config.json"
        config.save(path)
        restored = KyrixConfig.from_file(path)
        assert restored == config
        assert json.loads(config.to_json())["viewport_width"] == 640

    def test_partial_dict_uses_defaults(self):
        config = KyrixConfig.from_dict({"cache": {"frontend_entries": 0}})
        assert config.cache.frontend_entries == 0
        assert config.cache.backend_entries == CacheConfig().backend_entries
        assert config.storage == StorageConfig()

    @pytest.mark.parametrize(
        "bad",
        INVALID_VALUES + MALFORMED_INPUT,
        ids=_row_id,
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(KyrixError) as caught:
            KyrixConfig.from_dict(bad)
        if bad in MALFORMED_INPUT:
            # The error names the offending ``section.key`` path.
            assert repr(_offending(bad)[0]) in str(caught.value)

    @pytest.mark.parametrize("key", DELETED_KEYS)
    def test_a_deleted_key_in_a_saved_config_is_refused_by_name(self, key, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(DELETED_KEYS[key]))
        with pytest.raises(KyrixError, match=re.escape(repr(key))):
            KyrixConfig.from_file(path)

    def test_an_oversized_page_is_refused_by_name_and_a_maximal_one_works(self):
        # Was: accepted, then a bare ``struct.error`` from the first insert.
        with pytest.raises(KyrixError, match=r"storage\.page_size.*65535"):
            KyrixConfig.from_dict({"storage": {"page_size": 65_536}})
        from repro.storage.database import Database

        config = KyrixConfig.from_dict({"storage": {"page_size": 65_535}})
        table = Database(config.storage).create_table("t", [("v", "int")])
        assert table.fetch(table.insert((1,))) == (1,)

    @pytest.mark.parametrize(
        "heading", [f"{name}.*" for name in SECTIONS] + ["KyrixConfig"]
    )
    def test_operations_reference_matches_the_dataclasses(self, heading):
        """Both directions: every leaf of every section, and of the top
        level, has a ``docs/operations.md`` row with its real default and its
        evidence, and no row names a field that does not exist."""
        section = KyrixConfig()
        if heading.endswith(".*"):
            section = getattr(section, heading[:-2])
        table = OPERATIONS_DOC.read_text().split(f"### `{heading}`", 1)[1].split("\n###", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|(.*)\|$", table, re.M)
        assert {name: json.loads(default) for name, default, _ in rows} == {
            spec.name: getattr(section, spec.name)
            for spec in fields(section)
            if not is_dataclass(getattr(section, spec.name))
        }
        for name, _, cells in rows:
            assert cells.split(" | ")[-1].strip(), f"{heading} {name} names no evidence"

    @pytest.mark.parametrize("names, module, values", _not_a_knob_rows())
    def test_every_constant_that_is_not_a_knob_exists_with_its_documented_value(
        self, names, module, values
    ):
        """A constant the runbook lists is read where it says, with the value
        it says; a deleted one leaves no row behind.  ``Owner(arg=)`` names
        a keyword default."""
        source = importlib.import_module(module)
        assert len(names) == len(values)
        for name, value in zip(names, values):
            if name.endswith("=)"):
                owner, argument = name[:-2].split("(")
                actual = (
                    inspect.signature(getattr(source, owner))
                    .parameters[argument]
                    .default
                )
            else:
                actual = getattr(source, name)
            assert actual == value, f"{name} in {module}"

    def test_storage_config_validation(self):
        with pytest.raises(KyrixError):
            StorageConfig(buffer_pool_pages=2).validate()

    def test_process_workers_are_refused_by_name_where_fork_is_missing(
        self, monkeypatch
    ):
        # A worker serves the shard index it inherits from the fork; a
        # platform that cannot fork gets a typed refusal, not a fallback.
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        with pytest.raises(KyrixError, match="'fork' start method"):
            ClusterConfig(worker_mode="processes").validate()
        with pytest.raises(KyrixError, match="'fork' start method"):
            KyrixConfig.from_dict({"cluster": {"worker_mode": "processes"}})
        ClusterConfig(worker_mode="threads").validate()


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
