"""Replica sets under injected faults: failover, breaker, attribution.

Every failure in this suite is injected through the first-class fault seam
(``repro.serving.faults``) — deterministic schedules, virtual-clock latency
— so the failure paths are exercised without monkeypatching or sleeping.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import build_cluster
from repro.errors import AllReplicasFailedError, ProtocolError, ReplicaTimeoutError
from repro.metrics.timer import VirtualClock
from repro.net import columnar
from repro.net.protocol import DataRequest, DataResponse
from repro.serving import (
    FaultInjectingService,
    FaultInjectingTransport,
    FaultRule,
    FaultSchedule,
    InjectedFaultError,
    ReplicaService,
    fault_replica,
    unwrap,
)
from repro.serving.replica import ReplicaSetStats


class ScriptedService:
    """A deterministic in-memory replica: objects derived from the request."""

    def __init__(self, marker: str = "scripted") -> None:
        self.marker = marker
        self.calls = 0
        self.closed = False

    compiled = None
    config = None
    stats = None

    def _objects(self, request: DataRequest) -> list[dict]:
        return [
            {"tuple_id": i, "xmin": request.xmin, "source": "replica"}
            for i in range(3)
        ]

    def handle(self, request: DataRequest) -> DataResponse:
        self.calls += 1
        return DataResponse(
            request=request, objects=self._objects(request), query_ms=1.0,
            queries_issued=1,
        )

    def close(self) -> None:
        self.closed = True


def _box(i: int = 0) -> DataRequest:
    return DataRequest(
        app_name="scripted", canvas_id="c", layer_index=0, granularity="box",
        xmin=float(i), ymin=0.0, xmax=float(i) + 10.0, ymax=10.0,
    )


from tests.cluster.conftest import payload_bytes as _payload_bytes  # noqa: E402


class TestFaultSchedule:
    def test_fail_nth_hits_exactly_one_call(self):
        schedule = FaultSchedule.fail_nth(2)
        hits = [bool(schedule.consult("handle")) for _ in range(5)]
        assert hits == [False, False, True, False, False]
        assert schedule.injected == 1

    def test_fail_first_clears_after_count(self):
        schedule = FaultSchedule.fail_first(3)
        hits = [bool(schedule.consult("handle")) for _ in range(5)]
        assert hits == [True, True, True, False, False]

    def test_per_op_counters_are_independent(self):
        schedule = FaultSchedule.fail_nth(0, op="handle")
        assert not schedule.consult("roundtrip")
        assert schedule.consult("handle")
        assert schedule.calls("handle") == 1
        assert schedule.calls("roundtrip") == 1

    def test_rule_validation(self):
        from repro.errors import KyrixError

        with pytest.raises(KyrixError):
            FaultRule(kind="explode")
        # Only ``handle`` (a service) and ``roundtrip`` (a transport) are
        # ever consulted, so a rule for any other operation could not fire.
        with pytest.raises(KyrixError, match="unknown fault op 'warm'"):
            FaultRule(kind="error", op="warm")
        with pytest.raises(KyrixError):
            FaultRule(kind="error", start=-1)


class TestFaultInjectingService:
    def test_error_fault_raises_without_touching_inner(self):
        inner = ScriptedService()
        faulty = FaultInjectingService(inner, FaultSchedule.fail_always())
        with pytest.raises(InjectedFaultError):
            faulty.handle(_box())
        assert inner.calls == 0

    def test_latency_fault_advances_the_virtual_clock(self):
        clock = VirtualClock()
        faulty = FaultInjectingService(
            ScriptedService(), FaultSchedule.slow(120.0), clock=clock
        )
        response = faulty.handle(_box())
        assert clock.now_ms == pytest.approx(120.0)
        assert response.objects  # slow, but correct

    def test_corruption_fault_returns_wrong_payload(self):
        faulty = FaultInjectingService(ScriptedService(), FaultSchedule.corrupt_nth(0))
        corrupted = faulty.handle(_box())
        assert corrupted.objects == [{"tuple_id": -1, "corrupted": True}]
        clean = faulty.handle(_box())
        assert clean.objects[0]["source"] == "replica"


class _EmptyTransport:
    """A far side that answers every request with no objects."""

    def roundtrip(self, payload: bytes) -> bytes:
        request, _ = columnar.decode_request(payload)
        return columnar.encode_response(DataResponse(request=request, objects=[]))

    def close(self) -> None:
        pass


class _FrameRecorder:
    """Records the (request, reply) message kinds crossing a transport."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.frames: list[tuple[int, int]] = []

    def roundtrip(self, payload: bytes) -> bytes:
        reply = self.inner.roundtrip(payload)
        self.frames.append(
            (columnar.message_kind(payload), columnar.message_kind(reply))
        )
        return reply

    def close(self) -> None:
        self.inner.close()


class TestFaultInjectingTransport:
    def test_error_fault_raises_before_delivery(self):
        inner = _FrameRecorder(_EmptyTransport())
        faulty = FaultInjectingTransport(inner, FaultSchedule.fail_always(op="roundtrip"))
        with pytest.raises(InjectedFaultError):
            faulty.roundtrip(columnar.encode_request(_box()))
        assert inner.frames == []

    def test_corruption_fault_garbles_the_reply(self):
        faulty = FaultInjectingTransport(
            _EmptyTransport(), FaultSchedule([FaultRule(kind="corrupt", op="roundtrip")])
        )
        reply = faulty.roundtrip(columnar.encode_request(_box()))
        with pytest.raises(ProtocolError, match="expected a response"):
            columnar.decode_response(reply)


class TestReplicaSetStats:
    """The set's attribution counters, kept under the set's own lock."""

    def test_a_counter_appears_once_it_moves(self):
        stats = ReplicaSetStats(replica_count=2)
        assert stats.snapshot() == {}
        assert (stats.requests, stats.failovers, stats.breaker_opens) == (0, 0, 0)
        stats.count("requests", "replica1_requests")
        stats.count("requests", "replica1_requests", "replica1_failures", "failovers")
        assert stats.snapshot() == {
            "requests": 2, "replica1_requests": 2, "replica1_failures": 1, "failovers": 1,
        }
        assert stats.per_replica_requests() == {0: 0, 1: 2}
        assert stats.per_replica_failures() == {0: 0, 1: 1}

    def test_reset_clears_every_counter(self):
        stats = ReplicaSetStats(replica_count=1)
        stats.count("requests", "replica0_requests", "breaker_opens", "exhausted")
        stats.reset()
        assert stats.snapshot() == {}
        assert stats.requests_for(0) == stats.breaker_opens == 0

    def test_counts_are_exact_under_concurrent_writers(self):
        stats = ReplicaSetStats(replica_count=4)
        barrier = threading.Barrier(4)

        def writer(index: int) -> None:
            barrier.wait()
            for _ in range(2_000):
                stats.count("requests", f"replica{index}_requests")

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert stats.requests == 8_000
        assert stats.per_replica_requests() == {i: 2_000 for i in range(4)}


class TestFailover:
    def test_failover_masks_a_dead_replica(self):
        replicas = [ScriptedService("r0"), ScriptedService("r1")]
        service = ReplicaService(replicas, policy="round_robin")
        fault_replica(service, 0, FaultSchedule.fail_always())
        baseline = ReplicaService([ScriptedService("solo")])
        for i in range(6):
            assert _payload_bytes(service.handle(_box(i))) == _payload_bytes(
                baseline.handle(_box(i))
            )
        assert service.stats.failures_for(1) == 0
        assert service.stats.requests_for(1) == 6
        # Every attempt on the dead replica failed; the rest failed over.
        assert service.stats.failures_for(0) == service.stats.requests_for(0) > 0
        assert service.stats.failovers == service.stats.requests_for(0)

    def test_all_replicas_failed_carries_every_cause(self):
        replicas = [ScriptedService(), ScriptedService(), ScriptedService()]
        service = ReplicaService(replicas)
        for index in range(3):
            fault_replica(service, index, FaultSchedule.fail_always())
        with pytest.raises(AllReplicasFailedError) as excinfo:
            service.handle(_box())
        error = excinfo.value
        assert sorted(error.causes) == [0, 1, 2]
        assert all(isinstance(c, InjectedFaultError) for c in error.causes.values())
        assert error.attempts == 3
        for index in range(3):
            assert f"replica{index}" in str(error)
        assert service.stats.snapshot()["exhausted"] == 1

    def test_timeout_counts_as_failure_and_fails_over(self):
        clock = VirtualClock()
        replicas = [ScriptedService("slow"), ScriptedService("fast")]
        service = ReplicaService(replicas, timeout_ms=50.0, clock=clock)
        request = _box()
        # Round robin starts on replica 0, which the fault makes slow.
        fault_replica(service, 0, FaultSchedule.slow(100.0), clock=clock)
        response = service.handle(request)
        assert response.objects[0]["source"] == "replica"
        assert service.stats.failures_for(0) == 1
        assert service.stats.requests_for(1) == 1
        # The slow attempt surfaced as a timeout, not a generic error.
        fault_replica(service, 1, FaultSchedule.fail_always())
        with pytest.raises(AllReplicasFailedError) as excinfo:
            service.handle(request)
        assert isinstance(excinfo.value.causes[0], ReplicaTimeoutError)

    def test_corrupted_reply_on_the_real_wire_trips_the_breaker_and_fails_over(self):
        from repro.bench.apps import build_dots_backend, default_config
        from repro.datagen.synthetic import tiny_spec
        from repro.serving.transport import TransportService

        stack = build_dots_backend(
            tiny_spec("uniform", num_points=300, seed=3),
            config=default_config(viewport=256),
        )
        request = DataRequest(
            app_name=stack.compiled.app_name, canvas_id="dots", layer_index=0,
            granularity="box", xmin=0.0, ymin=0.0, xmax=200.0, ymax=200.0,
        )
        healthy = TransportService(stack.backend)
        broken = TransportService(stack.backend)
        recorder = _FrameRecorder(broken.transport)
        broken.stub.transport = FaultInjectingTransport(
            recorder, FaultSchedule([FaultRule(kind="corrupt", op="roundtrip")])
        )
        # The garbled reply surfaces typed — never as a silently wrong (or
        # silently re-negotiated) payload.
        with pytest.raises(ProtocolError, match="expected a response"):
            broken.handle(request)
        service = ReplicaService(
            [broken, healthy], policy="round_robin", breaker_threshold=2
        )
        expected = stack.backend.handle(request)
        # Wire corruption on replica 0 is caught and failed over, every time.
        for _ in range(4):
            assert _payload_bytes(service.handle(request)) == _payload_bytes(expected)
        assert service.stats.failures_for(0) == service.stats.requests_for(0) == 2
        assert service.breaker_open(0)
        assert service.stats.failures_for(1) == 0
        # The fault-wrapped conversation spoke the production wire: binary
        # request/response messages, the same frames an unwrapped stub sends.
        assert recorder.frames == [(columnar.MSG_REQUEST, columnar.MSG_RESPONSE)] * 3


class TestCircuitBreaker:
    def _service(self, clock, threshold=2, reset_s=5.0):
        replicas = [ScriptedService("r0"), ScriptedService("r1")]
        service = ReplicaService(
            replicas,
            policy="round_robin",
            breaker_threshold=threshold,
            breaker_reset_s=reset_s,
            clock=clock,
        )
        injector = fault_replica(service, 0, FaultSchedule.fail_always(), clock=clock)
        return service, injector

    def test_breaker_opens_after_threshold_consecutive_failures(self):
        clock = VirtualClock()
        service, _ = self._service(clock, threshold=2)
        for i in range(8):
            service.handle(_box(i))
        assert service.breaker_open(0)
        # Exactly `threshold` attempts reached the dead replica; once the
        # breaker opened, traffic stopped.
        assert service.stats.requests_for(0) == 2
        assert service.stats.failures_for(0) == 2
        assert service.stats.snapshot()["breaker_opens"] == 1

    def test_breaker_admits_a_trial_after_reset_elapses(self):
        clock = VirtualClock()
        service, injector = self._service(clock, threshold=2, reset_s=5.0)
        for i in range(6):
            service.handle(_box(i))
        attempts_while_open = service.stats.requests_for(0)
        assert service.breaker_open(0)
        clock.advance(5_000.0)
        # The reset window elapsed on the virtual clock: exactly one trial
        # probe runs (and fails), re-opening the breaker with a fresh timer.
        service.handle(_box(100))
        service.handle(_box(101))
        assert service.stats.requests_for(0) == attempts_while_open + 1
        assert service.breaker_open(0)
        service.handle(_box(102))
        service.handle(_box(103))
        assert service.stats.requests_for(0) == attempts_while_open + 1

    def test_successful_trial_closes_the_breaker(self):
        clock = VirtualClock()
        service, injector = self._service(clock, threshold=2, reset_s=5.0)
        for i in range(4):
            service.handle(_box(i))
        assert service.breaker_open(0)
        # Heal the replica, let the reset window pass: the trial succeeds
        # and replica 0 rejoins the rotation.
        service.replicas[0] = injector.inner
        clock.advance(5_000.0)
        before = service.stats.requests_for(0)
        for i in range(6):
            service.handle(_box(200 + i))
        assert not service.breaker_open(0)
        assert service.stats.requests_for(0) > before
        # No new failures after the heal: the only failures on record are
        # the two that opened the breaker.
        assert service.stats.failures_for(0) == 2

    def test_open_breaker_admits_only_one_inflight_trial(self):
        clock = VirtualClock()
        service, injector = self._service(clock, threshold=1, reset_s=5.0)
        # One failure on the dead replica 0 opens its breaker (threshold=1);
        # the request itself is masked by failover to replica 1.
        service.handle(_box())
        assert service.breaker_open(0)

        started, release = threading.Event(), threading.Event()

        class _BlockingReplica(ScriptedService):
            def handle(self, request):
                started.set()
                assert release.wait(timeout=5.0)
                return super().handle(request)

        # Heal replica 0 behind a replica whose trial probe hangs mid-flight.
        blocking = _BlockingReplica("trial")
        service.replicas[0] = blocking
        clock.advance(5_000.0)

        trial = threading.Thread(target=service.handle, args=(_box(2),))
        trial.start()
        assert started.wait(timeout=5.0)
        # The trial probe is out: concurrent requests must keep avoiding the
        # open replica instead of piling more probes onto it.
        response = service.handle(_box(3))
        assert all(o["source"] == "replica" for o in response.objects)
        assert service.inflight == [1, 0]
        release.set()
        trial.join(timeout=5.0)
        assert not trial.is_alive()
        assert blocking.calls == 1
        # The probe settled successfully: the breaker closed.
        assert not service.breaker_open(0)

    def test_all_breakers_open_still_probes_instead_of_starving(self):
        clock = VirtualClock()
        replicas = [ScriptedService(), ScriptedService()]
        service = ReplicaService(
            replicas, breaker_threshold=1, breaker_reset_s=60.0, clock=clock
        )
        injectors = [
            fault_replica(service, index, FaultSchedule.fail_always(), clock=clock)
            for index in range(2)
        ]
        with pytest.raises(AllReplicasFailedError):
            service.handle(_box())
        assert service.breaker_open(0) and service.breaker_open(1)
        # Both breakers are open and cold, but a request must not be
        # rejected without any attempt: the set is probed as a last resort.
        service.replicas[0] = injectors[0].inner
        response = service.handle(_box(1))
        assert response.objects


class TestKillReplicaMidSession:
    """The satellite: kill replica 0 mid-session, payloads stay identical."""

    def test_byte_identical_to_single_replica_run(self, dots_stack):
        baseline = build_cluster(dots_stack.backend, shard_count=2, replicas=1)
        replicated = build_cluster(
            dots_stack.backend, shard_count=2, replicas=2,
            replica_policy="least_inflight",
        )
        try:
            requests = [
                DataRequest(
                    app_name=dots_stack.compiled.app_name, canvas_id="dots",
                    layer_index=0, granularity="box",
                    xmin=30.0 * i, ymin=20.0 * i,
                    xmax=30.0 * i + 400.0, ymax=20.0 * i + 400.0,
                )
                for i in range(10)
            ]
            # First half of the session: all replicas healthy.
            for request in requests[:5]:
                assert _payload_bytes(replicated.router.handle(request)) == (
                    _payload_bytes(baseline.router.handle(request))
                )
            # Kill replica 0 of every shard mid-session.
            for layer in replicated.router.replica_sets().values():
                fault_replica(layer, 0, FaultSchedule.fail_always())
            for request in requests[5:]:
                assert _payload_bytes(replicated.router.handle(request)) == (
                    _payload_bytes(baseline.router.handle(request))
                )
            # Failures are attributed to replica 0 only.
            replica_sets = replicated.router.replica_sets().values()
            assert all(layer.stats.failures_for(1) == 0 for layer in replica_sets)
            assert sum(layer.stats.failures_for(0) for layer in replica_sets) > 0
        finally:
            baseline.close()
            replicated.close()

    def test_unwrap_reaches_the_replica_layer(self, dots_stack):
        replicated = build_cluster(dots_stack.backend, shard_count=2, replicas=2)
        try:
            layer = unwrap(replicated.router, ReplicaService)
            assert isinstance(layer, ReplicaService)
            assert len(layer.replicas) == 2
            assert layer.children == tuple(layer.replicas)
        finally:
            replicated.close()
