"""Fixture tests for the built-in rule pack: every rule fires on its
violation and stays silent on the sanctioned pattern."""

from __future__ import annotations

import pytest


def rules_fired(findings):
    return sorted({finding.rule for finding in findings})


class TestFactoryOnly:
    VIOLATION = """
        from repro.server.backend import KyrixBackend

        def make():
            return KyrixBackend(db, compiled, config)
    """

    def test_fires_outside_sanctioned_zones(self, lint_source):
        for path in (
            "src/repro/bench/somewhere.py",
            "tests/x/test_y.py",
            "benchmarks/bench_z.py",
            "examples/demo.py",
        ):
            findings = lint_source(self.VIOLATION, path=path, rule="factory-only")
            assert [f.rule for f in findings] == ["factory-only"], path
            assert "build_service" in findings[0].message

    def test_fires_on_cluster_router_too(self, lint_source):
        source = """
            from repro.cluster.router import ClusterRouter
            router = ClusterRouter(shards, parts, compiled, config)
        """
        findings = lint_source(source, path="src/repro/bench/b.py", rule="factory-only")
        assert len(findings) == 1

    def test_silent_inside_serving_and_cluster(self, lint_source):
        for path in ("src/repro/serving/factory.py", "src/repro/cluster/builder.py"):
            assert lint_source(self.VIOLATION, path=path, rule="factory-only") == []

    def test_silent_on_factory_use_and_bare_references(self, lint_source):
        source = """
            from repro.server.backend import KyrixBackend
            from repro.serving import build_service, unwrap

            def make():
                service = build_service(config, database=db, compiled=compiled)
                return unwrap(service, KyrixBackend)  # reference, not a call

            def check(obj):
                return isinstance(obj, KyrixBackend)
        """
        assert lint_source(source, path="src/repro/bench/b.py", rule="factory-only") == []


class TestFaultSeam:
    def test_fires_on_string_monkeypatch_of_internals(self, lint_source):
        source = """
            def test_kill(monkeypatch):
                monkeypatch.setattr("repro.serving.transport.TransportService.handle", boom)
        """
        findings = lint_source(source, path="tests/serving/test_x.py", rule="fault-seam")
        assert rules_fired(findings) == ["fault-seam"]
        assert "repro.serving.faults" in findings[0].message

    def test_fires_on_object_monkeypatch_of_imported_internals(self, lint_source):
        source = """
            from repro.net import socket_transport

            def test_kill(monkeypatch):
                monkeypatch.setattr(socket_transport, "SocketTransport", Fake)
        """
        findings = lint_source(source, path="tests/net/test_x.py", rule="fault-seam")
        assert len(findings) == 1

    def test_fires_on_mock_patch(self, lint_source):
        source = """
            from unittest import mock

            def test_kill():
                with mock.patch("repro.cluster.router.ClusterRouter.handle"):
                    pass
        """
        findings = lint_source(source, path="tests/cluster/test_x.py", rule="fault-seam")
        assert len(findings) == 1

    def test_silent_on_the_sanctioned_fault_seam(self, lint_source):
        source = """
            from repro.serving import FaultSchedule, fault_replica

            def test_failover(replicated_service):
                schedule = FaultSchedule()
                schedule.add(fault_replica(0, after=2))
        """
        assert lint_source(source, path="tests/serving/test_x.py", rule="fault-seam") == []

    def test_silent_on_non_internal_patching(self, lint_source):
        source = """
            def test_env(monkeypatch):
                monkeypatch.setenv("REPRO_LOCKWATCH", "1")
                monkeypatch.setattr("repro.bench.apps.default_config", fake)
        """
        assert lint_source(source, path="tests/x/test_y.py", rule="fault-seam") == []

    def test_silent_outside_tests(self, lint_source):
        source = """
            def install(monkeypatch):
                monkeypatch.setattr("repro.serving.transport.X", Y)
        """
        assert lint_source(source, path="src/repro/tooling.py", rule="fault-seam") == []


class TestLockDiscipline:
    def test_fires_on_unguarded_write(self, lint_source):
        source = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    self.value += 1
        """
        findings = lint_source(source, rule="lock-discipline")
        assert rules_fired(findings) == ["lock-discipline"]
        assert "Counter.bump" in findings[0].message

    def test_fires_on_nested_attribute_and_subscript_writes(self, lint_source):
        source = """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.stats = Stats()
                    self._entries = {}

                def record(self, key):
                    self.stats.hits += 1
                    self._entries[key] = True
        """
        findings = lint_source(source, rule="lock-discipline")
        assert len(findings) == 2

    def test_fires_on_writes_made_by_unpacking(self, lint_source):
        source = """
            import threading

            class Transport:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sock = None
                    self.sent = 0
                    self.names = []

                def teardown(self):
                    sock, self._sock = self._sock, None
                    [self.sent, *self.names] = (0, "a", "b")
        """
        findings = lint_source(source, rule="lock-discipline")
        assert [finding.line for finding in findings] == [12, 13, 13]
        assert [finding.message.split()[2] for finding in findings] == [
            "self._sock", "self.sent", "self.names",
        ]

    def test_silent_on_unpacking_under_the_lock(self, lint_source):
        source = """
            import threading

            class Transport:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sock = None

                def teardown(self):
                    with self._lock:
                        sock, self._sock = self._sock, None
                    first, second = sock, sock
        """
        assert lint_source(source, rule="lock-discipline") == []

    def test_silent_when_guarded(self, lint_source):
        source = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

                def rename(self, name):
                    with self._other, self._lock:
                        self.name = name
        """
        assert lint_source(source, rule="lock-discipline") == []

    def test_silent_without_a_lock(self, lint_source):
        source = """
            class Plain:
                def __init__(self):
                    self.value = 0

                def bump(self):
                    self.value += 1
        """
        assert lint_source(source, rule="lock-discipline") == []

    def test_condition_counts_as_a_guard(self, lint_source):
        source = """
            import threading

            class Drain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._drained = threading.Condition(self._lock)
                    self.pending = 0

                def note(self):
                    with self._drained:
                        self.pending -= 1
        """
        assert lint_source(source, rule="lock-discipline") == []

    def test_init_writes_are_exempt(self, lint_source):
        source = """
            import threading

            class Built:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.ready = True
        """
        assert lint_source(source, rule="lock-discipline") == []


class TestCollectorState:
    VIOLATION = """
        import gc
        from gc import unfreeze as thaw

        def build():
            gc.freeze()
            gc.set_threshold(100_000)

        def close():
            thaw()
    """

    def test_fires_on_every_spelling_under_src(self, lint_source):
        findings = lint_source(
            self.VIOLATION, path="src/repro/serving/factory.py", rule="collector-state"
        )
        assert [f.rule for f in findings] == ["collector-state"] * 3
        assert "gc.unfreeze()" in findings[2].message

    def test_suppressed_line_is_no_finding(self, lint_source):
        source = """
            import gc

            def build():
                gc.disable()  # repolint: disable=collector-state
        """
        assert lint_source(source, path="src/repro/bench/x.py", rule="collector-state") == []

    def test_silent_on_reads_collect_and_outside_src(self, lint_source):
        source = """
            import gc

            def measure():
                gc.collect()
                return gc.get_stats(), gc.get_freeze_count()
        """
        assert lint_source(source, path="src/repro/bench/x.py", rule="collector-state") == []
        for path in ("tests/serving/test_x.py", "benchmarks/bench_y.py"):
            assert lint_source(self.VIOLATION, path=path, rule="collector-state") == []


class TestEdgeRows:
    VIOLATION = """
        def _query_spatial(self, statement, rect):
            result = self.engine.execute(statement.bind(*rect))
            return result.to_dicts(), 1

        def gather(shard_responses):
            return [row for response in shard_responses for row in response.objects.to_dicts()]
    """

    @pytest.mark.parametrize(
        "path",
        ["src/repro/server/backend.py", "src/repro/cluster/router.py",
         "src/repro/serving/middleware.py", "src/repro/net/columnar.py",
         "src/repro/client/frontend.py", "src/repro/bench/experiments.py"],
    )
    def test_fires_below_the_edge(self, lint_source, path):
        findings = lint_source(self.VIOLATION, path=path, rule="edge-rows")
        assert [f.line for f in findings] == [4, 7]
        assert "below the edge" in findings[0].message

    @pytest.mark.parametrize(
        "path",
        ["src/repro/server/http_server.py",
         "src/repro/server/indexer.py", "src/repro/net/protocol.py",
         "tests/minisql/test_executor.py",
         "examples/quickstart.py", "benchmarks/bench_storage_engine.py"],
    )
    def test_silent_at_the_edges_and_outside_src(self, lint_source, path):
        assert lint_source(self.VIOLATION, path=path, rule="edge-rows") == []

    def test_silent_on_defining_and_passing_it_along(self, lint_source):
        source = """
            class ResultSet:
                def to_dicts(self):
                    return [dict(zip(self.columns, row)) for row in self.rows]

            def handle(response):
                reader = response.to_dicts
                return RowBatch(response.objects.names, response.objects.rows)
        """
        assert lint_source(source, path="src/repro/minisql/executor.py", rule="edge-rows") == []

    def test_fires_in_the_frontend_that_keeps_batches(self, lint_source):
        # The frontend hands each layer's batch to its readers (the renderer,
        # a click), which read a row at a time: a whole-batch to_dicts() there
        # is a dict per object nobody asked for.
        source = """
            def _fetch_current_viewport(self, response):
                self.visible_objects[0] = response.to_dicts()
        """
        findings = lint_source(source, path="src/repro/client/frontend.py", rule="edge-rows")
        assert [f.line for f in findings] == [3]


class TestSpanDiscipline:
    def test_fires_on_bare_time_time(self, lint_source):
        source = """
            import time

            def measure():
                start = time.time()
                return time.time() - start
        """
        findings = lint_source(source, rule="span-discipline")
        assert len(findings) == 2

    def test_fires_on_from_import_alias(self, lint_source):
        source = """
            from time import time

            def now():
                return time()
        """
        findings = lint_source(source, rule="span-discipline")
        assert len(findings) == 1

    def test_fires_on_tracer_construction_outside_telemetry(self, lint_source):
        source = """
            from repro.telemetry.tracer import Tracer

            def make():
                return Tracer()
        """
        findings = lint_source(
            source, path="src/repro/serving/x.py", rule="span-discipline"
        )
        assert len(findings) == 1
        assert "get_tracer" in findings[0].message

    def test_silent_on_monotonic_and_get_tracer(self, lint_source):
        source = """
            import time
            from repro.telemetry import get_tracer

            def measure():
                start = time.perf_counter()
                with get_tracer().span("stage"):
                    pass
                return time.monotonic(), time.perf_counter() - start
        """
        assert lint_source(source, path="src/repro/serving/x.py", rule="span-discipline") == []

    def test_tracer_construction_allowed_in_telemetry_and_tests(self, lint_source):
        source = """
            from repro.telemetry.tracer import Tracer
            tracer = Tracer()
        """
        for path in ("src/repro/telemetry/setup.py", "tests/telemetry/test_t.py"):
            assert lint_source(source, path=path, rule="span-discipline") == []

    def test_virtual_clock_is_constructed_outside_src_only(self, lint_source):
        source = """
            from repro.metrics.timer import VirtualClock

            class Pool:
                def __init__(self, clock=None):
                    self.clock = clock or VirtualClock()
        """
        findings = lint_source(
            source, path="src/repro/storage/x.py", rule="span-discipline"
        )
        assert len(findings) == 1
        assert "perf_counter" in findings[0].message
        for path in ("tests/serving/test_t.py", "examples/x.py", "benchmarks/bench_x.py"):
            assert lint_source(source, path=path, rule="span-discipline") == []


class TestProtocolDrift:
    def test_fires_on_dropped_field(self, lint_source):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Message:
                kind: str
                payload: str

                def to_dict(self):
                    return {"kind": self.kind}

                @classmethod
                def from_dict(cls, data):
                    return cls(kind=data["kind"], payload=data.get("payload", ""))
        """
        findings = lint_source(source, rule="protocol-drift")
        assert len(findings) == 1
        assert "payload" in findings[0].message and "to_dict" in findings[0].message

    def test_silent_on_full_literal_coverage(self, lint_source):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Message:
                kind: str
                payload: str

                def to_dict(self):
                    return {"kind": self.kind, "payload": self.payload}

                @classmethod
                def from_dict(cls, data):
                    return cls(kind=data["kind"], payload=data["payload"])
        """
        assert lint_source(source, rule="protocol-drift") == []

    def test_silent_on_blanket_asdict_and_kwargs(self, lint_source):
        source = """
            import json
            from dataclasses import asdict, dataclass

            @dataclass
            class Message:
                kind: str
                payload: str

                def to_dict(self):
                    return asdict(self)

                def to_json(self):
                    return json.dumps(self.to_dict())

                @classmethod
                def from_json(cls, text):
                    return cls(**json.loads(text))

                @classmethod
                def from_dict(cls, data):
                    return _load_fields(cls, data)
        """
        assert lint_source(source, rule="protocol-drift") == []

    def test_silent_without_codec_pair(self, lint_source):
        source = """
            from dataclasses import dataclass

            @dataclass
            class ViewOnly:
                kind: str

                def to_dict(self):
                    return {}
        """
        assert lint_source(source, rule="protocol-drift") == []

    def test_silent_outside_src(self, lint_source):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Message:
                kind: str

                def to_dict(self):
                    return {}

                @classmethod
                def from_dict(cls, data):
                    return cls("x")
        """
        assert lint_source(source, path="tests/x/test_y.py", rule="protocol-drift") == []


class TestProtocolDriftCodecCompanion:
    """The registered codec module must cover its sibling dataclass fields.

    These fixtures need *real* files: the checker reads the sibling
    ``protocol.py`` from disk next to the codec module, so the usual
    virtual-path ``lint_source`` fixture exercises only the graceful-skip
    path (see the last test).
    """

    PROTOCOL = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class DataRequest:
            app_name: str
            shard_id: int | None = None

        @dataclass(frozen=True)
        class DataResponse:
            query_ms: float = 0.0
    """

    def _lint_codec(self, tmp_path, codec_source):
        import textwrap

        from repro.analysis import ModuleSource, all_rules
        from repro.analysis.core import check_module

        (tmp_path / "protocol.py").write_text(
            textwrap.dedent(self.PROTOCOL), encoding="utf-8"
        )
        module = ModuleSource(
            tmp_path / "columnar.py",
            "src/repro/net/columnar.py",
            text=textwrap.dedent(codec_source),
        )
        findings, _ = check_module(module, [all_rules()["protocol-drift"]()])
        return findings

    FULL_COVERAGE = """
        def _pack_request(request):
            return [request.app_name, request.shard_id]

        def _unpack_request(row):
            return dict(app_name=row[0], shard_id=row[1])

        def encode_response(response):
            return [response.query_ms]

        def decode_response(body):
            return dict(query_ms=body[0])
    """

    def test_silent_on_full_coverage(self, tmp_path):
        assert self._lint_codec(tmp_path, self.FULL_COVERAGE) == []

    def test_fires_on_field_missing_from_the_codec(self, tmp_path):
        dropped = self.FULL_COVERAGE.replace(
            "return [request.app_name, request.shard_id]",
            "return [request.app_name]",
        )
        findings = self._lint_codec(tmp_path, dropped)
        assert len(findings) == 1
        assert "_pack_request" in findings[0].message
        assert "shard_id" in findings[0].message

    def test_fires_on_missing_codec_function(self, tmp_path):
        missing = self.FULL_COVERAGE.replace("def decode_response", "def _renamed")
        findings = self._lint_codec(tmp_path, missing)
        assert len(findings) == 1
        assert "must define decode_response()" in findings[0].message

    def test_unreadable_sibling_skips_instead_of_fabricating(self, lint_source):
        # Virtual paths have no protocol.py on disk: the companion check
        # must skip, not invent findings about an unknown dataclass.
        findings = lint_source(
            "x = 1", path="src/repro/net/columnar.py", rule="protocol-drift"
        )
        assert findings == []


class TestReplicaSetCoverage:
    """The replica set's module is covered by the concurrency rules.

    ``ReplicaService`` owns the lock its breaker state and selection
    counters live under; these tests pin both directions: the real module
    lints clean *without a single suppression*, and the exact shapes a
    careless edit would introduce (breaker state written outside the lock,
    wall-clock breaker-reset arithmetic) are caught by the existing rules.
    """

    def _lint_real_module(self, rule):
        from pathlib import Path

        from repro.analysis import ModuleSource, all_rules
        from repro.analysis.core import check_module

        rel_path = "src/repro/serving/replica.py"
        module = ModuleSource(Path(rel_path), rel_path)
        findings, suppressed = check_module(module, [all_rules()[rule]()])
        return findings, suppressed

    def test_replica_module_is_lock_discipline_clean(self):
        findings, suppressed = self._lint_real_module("lock-discipline")
        assert findings == []
        assert suppressed == 0, "the replica set must not need suppressions"

    def test_replica_module_is_span_discipline_clean(self):
        findings, suppressed = self._lint_real_module("span-discipline")
        assert findings == []
        assert suppressed == 0, "the replica set must not need suppressions"

    def test_fires_on_breaker_state_written_outside_the_lock(self, lint_source):
        source = """
            import threading

            class Replicas:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._inflight = [0, 0]
                    self._open_since_ms = None

                def finish(self, index, now_ms):
                    with self._lock:
                        self._inflight[index] -= 1
                    self._open_since_ms = now_ms  # breaker state, lock released
        """
        findings = lint_source(
            source, path="src/repro/serving/replica.py", rule="lock-discipline"
        )
        assert [f.rule for f in findings] == ["lock-discipline"]
        assert "_open_since_ms" in findings[0].message

    def test_fires_on_wall_clock_breaker_reset_arithmetic(self, lint_source):
        source = """
            import time

            class Replicas:
                def admits(self, reset_s):
                    return time.time() - self.open_since_s >= reset_s
        """
        findings = lint_source(
            source, path="src/repro/serving/replica.py", rule="span-discipline"
        )
        assert [f.rule for f in findings] == ["span-discipline"]
