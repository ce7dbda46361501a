"""Property-based tests for replica selection, failover and balance.

The replica layer's contract, stated as properties over arbitrary
deterministic fault schedules and request streams:

* **masking** — for any schedule that leaves at least one fault-free
  replica, responses are equal to the no-fault baseline (failures and
  timeouts are invisible to the caller),
* **balance** — ``round_robin`` spreads distinct-key requests over the K
  healthy replicas within ±1.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.metrics.timer import VirtualClock
from repro.net.protocol import DataRequest, DataResponse
from repro.serving import FaultSchedule, ReplicaService, fault_replica


class EchoService:
    """Deterministic stand-in replica: the payload is a pure function of
    the request, so every healthy replica answers identically."""

    compiled = None
    config = None
    stats = None

    def handle(self, request: DataRequest) -> DataResponse:
        objects = [
            {"tuple_id": i, "xmin": request.xmin, "ymin": request.ymin}
            for i in range(2)
        ]
        return DataResponse(
            request=request, objects=objects, query_ms=1.0, queries_issued=1
        )

    def close(self) -> None:
        pass


def _request(i: int) -> DataRequest:
    return DataRequest(
        app_name="echo", canvas_id="c", layer_index=0, granularity="box",
        xmin=float(i), ymin=float(i % 7), xmax=float(i) + 5.0, ymax=50.0,
    )


# A fault assignment for one replica: None (healthy), or a schedule factory.
_fault_kinds = st.sampled_from(
    ["healthy", "dead", "flaky_first", "flaky_nth", "slow"]
)


def _schedule_for(kind: str) -> FaultSchedule | None:
    if kind == "healthy":
        return None
    if kind == "dead":
        return FaultSchedule.fail_always()
    if kind == "flaky_first":
        return FaultSchedule.fail_first(3)
    if kind == "flaky_nth":
        return FaultSchedule.fail_nth(1)
    if kind == "slow":
        # 200 ms of virtual latency per call: over the 50 ms timeout below,
        # so slow replicas are failed over, never waited for.
        return FaultSchedule.slow(200.0)
    raise AssertionError(kind)


@st.composite
def fault_assignments(draw):
    """Fault kinds for 2..4 replicas, at least one replica fault-free."""
    count = draw(st.integers(min_value=2, max_value=4))
    kinds = draw(
        st.lists(_fault_kinds, min_size=count, max_size=count).filter(
            lambda ks: "healthy" in ks
        )
    )
    return kinds


class TestFaultMasking:
    @given(
        kinds=fault_assignments(),
        policy=st.sampled_from(["round_robin", "least_inflight"]),
        request_ids=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_schedule_with_a_healthy_replica_masks_faults(
        self, kinds, policy, request_ids
    ):
        clock = VirtualClock()
        baseline = EchoService()
        service = ReplicaService(
            [EchoService() for _ in kinds],
            policy=policy,
            timeout_ms=50.0,
            breaker_threshold=2,
            breaker_reset_s=10.0,
            clock=clock,
        )
        for index, kind in enumerate(kinds):
            schedule = _schedule_for(kind)
            if schedule is not None:
                fault_replica(service, index, schedule, clock=clock)
        for i in request_ids:
            request = _request(i)
            assert service.handle(request).objects == baseline.handle(request).objects

    @given(kinds=fault_assignments())
    @settings(max_examples=30, deadline=None)
    def test_no_failures_are_charged_to_healthy_replicas(self, kinds):
        clock = VirtualClock()
        service = ReplicaService(
            [EchoService() for _ in kinds], timeout_ms=50.0, clock=clock
        )
        for index, kind in enumerate(kinds):
            schedule = _schedule_for(kind)
            if schedule is not None:
                fault_replica(service, index, schedule, clock=clock)
        for i in range(10):
            service.handle(_request(i))
        for index, kind in enumerate(kinds):
            if kind == "healthy":
                assert service.stats.failures_for(index) == 0


class TestRoundRobinBalance:
    @given(
        replica_count=st.integers(min_value=2, max_value=5),
        dead=st.data(),
        requests=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_spread_over_healthy_replicas_is_within_one(
        self, replica_count, dead, requests
    ):
        dead_set = dead.draw(
            st.sets(
                st.integers(min_value=0, max_value=replica_count - 1),
                max_size=replica_count - 1,
            )
        )
        clock = VirtualClock()
        service = ReplicaService(
            [EchoService() for _ in range(replica_count)],
            policy="round_robin",
            breaker_threshold=1,
            breaker_reset_s=1e9,
            clock=clock,
        )
        # Open the dead replicas' breakers up front so the measured spread
        # covers only the healthy set.
        for index in sorted(dead_set):
            fault_replica(service, index, FaultSchedule.fail_always(), clock=clock)
        for index in sorted(dead_set):
            for attempt in range(3 * replica_count):
                if service.breaker_open(index):
                    break
                service.handle(_request(1000 + 10 * index + attempt))
            assert service.breaker_open(index)
        service.stats.reset()
        for i in range(requests):
            service.handle(_request(i))
        healthy = [i for i in range(replica_count) if i not in dead_set]
        counts = [service.stats.requests_for(i) for i in healthy]
        assert sum(counts) == requests
        assert max(counts) - min(counts) <= 1, (
            f"round_robin spread {counts} over healthy replicas {healthy}"
        )
