"""Deterministic fault injection for the serving stack.

Failover is untestable without controllable failures, so faults are a
first-class seam rather than ad-hoc monkeypatching: the test suites and
``examples/replica_cluster.py`` drive the same classes.

* :class:`FaultSchedule` — a deterministic, schedule-driven fault plan: a
  list of :class:`FaultRule` entries matched against a per-operation call
  counter (raise on the nth call, fail the first k calls, fail forever,
  add fixed latency, corrupt the payload).  No randomness: the same
  schedule replayed over the same traffic injects the same faults.
* :class:`FaultInjectingService` — middleware applying a schedule to any
  :class:`~repro.serving.base.DataService`; error faults raise
  :class:`InjectedFaultError`, latency faults advance a
  :class:`~repro.metrics.timer.VirtualClock` (so replica timeouts and tail
  latencies are simulated, not slept), corruption faults replace the
  response payload with a recognisably wrong one.
* :class:`FaultInjectingTransport` — the same idea one level down, on the
  :class:`~repro.serving.transport.ShardTransport` wire: error faults raise
  before the message is delivered (a dead connection), corruption faults
  garble the reply bytes so the client-side decode fails typed.

:func:`fault_replica` is the convenience hook tests and benchmarks use to
wrap one replica of a built cluster in place (via the
``ReplicaService.replicas`` accessor).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from ..errors import KyrixError
from ..telemetry import get_tracer
from .base import DataService, ServiceMiddleware

if TYPE_CHECKING:
    from ..net.protocol import DataRequest, DataResponse
    from .replica import ReplicaService
    from .transport import ShardTransport


class InjectedFaultError(KyrixError):
    """The failure a fault schedule injects (never raised by real code)."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: *which* calls it hits and *what* it does.

    ``kind`` is ``"error"`` (raise :class:`InjectedFaultError`),
    ``"latency"`` (advance the virtual clock by ``latency_ms``) or
    ``"corrupt"`` (return a wrong payload).  The rule matches the calls of
    operation ``op`` — ``"handle"`` (a service), ``"roundtrip"`` (a
    transport) or ``"*"`` for either — whose zero-based per-op call index
    lies in ``[start, start + count)``; ``count=None`` means forever.
    """

    kind: str
    op: str = "handle"
    start: int = 0
    count: int | None = None
    latency_ms: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in ("error", "latency", "corrupt"):
            raise KyrixError(f"unknown fault kind {self.kind!r}")
        if self.op not in ("handle", "roundtrip", "*"):
            # Nothing consults a schedule for any other operation, so such a
            # rule would never fire.
            raise KyrixError(f"unknown fault op {self.op!r}")
        if self.start < 0 or (self.count is not None and self.count < 0):
            raise KyrixError("fault rule start/count must be non-negative")

    def matches(self, op: str, call_index: int) -> bool:
        if self.op != "*" and self.op != op:
            return False
        if call_index < self.start:
            return False
        return self.count is None or call_index < self.start + self.count


class FaultSchedule:
    """A thread-safe, replayable plan of faults keyed by call order."""

    def __init__(self, rules: Iterable[FaultRule] = ()) -> None:
        self.rules = list(rules)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Total faults applied so far (all kinds).
        self.injected = 0

    # -- common shapes ------------------------------------------------------

    @classmethod
    def fail_always(cls, op: str = "handle") -> "FaultSchedule":
        """Every call of ``op`` fails (a dead replica)."""
        return cls([FaultRule(kind="error", op=op)])

    @classmethod
    def fail_nth(cls, n: int, op: str = "handle") -> "FaultSchedule":
        """Only the zero-based ``n``-th call of ``op`` fails."""
        return cls([FaultRule(kind="error", op=op, start=n, count=1)])

    @classmethod
    def fail_first(cls, count: int, op: str = "handle") -> "FaultSchedule":
        """The first ``count`` calls of ``op`` fail, then the fault clears."""
        return cls([FaultRule(kind="error", op=op, start=0, count=count)])

    @classmethod
    def slow(
        cls,
        latency_ms: float,
        op: str = "handle",
        start: int = 0,
        count: int | None = None,
    ) -> "FaultSchedule":
        """Add ``latency_ms`` of virtual-clock latency to matching calls."""
        return cls(
            [FaultRule(kind="latency", op=op, start=start, count=count,
                       latency_ms=latency_ms)]
        )

    @classmethod
    def corrupt_nth(cls, n: int, op: str = "handle") -> "FaultSchedule":
        """Corrupt the payload of the zero-based ``n``-th call of ``op``."""
        return cls([FaultRule(kind="corrupt", op=op, start=n, count=1)])

    # -- consultation -------------------------------------------------------

    def consult(self, op: str) -> list[FaultRule]:
        """Advance the per-op counter and return the rules hitting this call."""
        with self._lock:
            call_index = self._counts.get(op, 0)
            self._counts[op] = call_index + 1
        hits = [rule for rule in self.rules if rule.matches(op, call_index)]
        if hits:
            with self._lock:
                self.injected += len(hits)
        return hits

    def calls(self, op: str) -> int:
        """How many calls of ``op`` the schedule has seen."""
        with self._lock:
            return self._counts.get(op, 0)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self.injected = 0


def corrupted_response(request: "DataRequest") -> "DataResponse":
    """The recognisably-wrong payload a corruption fault substitutes.

    Its cells are storage types (an int marker, not a bool), so the shard
    wire carries it: a ``corrupt`` rule under a transport hands the caller
    a wrong payload, not a refused frame.
    """
    from ..net.protocol import DataResponse

    return DataResponse(
        request=request,
        objects=[{"tuple_id": -1, "corrupted": 1}],
        query_ms=0.0,
        from_cache=False,
        queries_issued=0,
    )


def _record_fault_events(rules: list[FaultRule], *, seam: str) -> None:
    """Stamp each injected fault as an event on the innermost open span.

    Chaos tests can then assert that a failure is *visible in the trace*
    (a ``fault_injected`` event on the replica attempt or rpc span), not
    merely inferable from counters.  A no-op when tracing is off.
    """
    if not rules:
        return
    span = get_tracer().current_span()
    for rule in rules:
        span.add_event(
            "fault_injected",
            seam=seam,
            kind=rule.kind,
            op=rule.op,
            latency_ms=rule.latency_ms,
        )


class FaultInjectingService(ServiceMiddleware):
    """Applies a :class:`FaultSchedule` to every call into ``inner``.

    Latency faults advance ``clock`` *before* the inner call (the slow
    replica is slow whether or not it would have answered); error faults
    then raise without touching ``inner`` at all (a dead replica does no
    work); corruption faults let the call run and replace the result.
    Every injected fault is additionally recorded as a ``fault_injected``
    event on the innermost open span, so traces show the failure.
    """

    def __init__(
        self,
        inner: DataService,
        schedule: FaultSchedule,
        *,
        clock: Any | None = None,
    ) -> None:
        super().__init__(inner)
        self.schedule = schedule
        self.clock = clock

    def _apply_pre(self, rules: list[FaultRule]) -> None:
        _record_fault_events(rules, seam="service")
        for rule in rules:
            if rule.kind == "latency" and self.clock is not None:
                self.clock.advance(rule.latency_ms)
        for rule in rules:
            if rule.kind == "error":
                raise InjectedFaultError(rule.message)

    def handle(self, request: "DataRequest") -> "DataResponse":
        rules = self.schedule.consult("handle")
        self._apply_pre(rules)
        response = self.inner.handle(request)
        if any(rule.kind == "corrupt" for rule in rules):
            return corrupted_response(request)
        return response


class FaultInjectingTransport:
    """A :class:`~repro.serving.transport.ShardTransport` that injects faults.

    Error faults raise before delivery (the connection died); latency
    faults charge the virtual clock per round-trip; corruption faults
    garble the reply bytes (an unknown kind byte, then a torn body) so the
    client-side decode raises a typed
    :class:`~repro.errors.ProtocolError` — the three failure shapes a
    networked shard actually exhibits.
    """

    def __init__(
        self,
        inner: "ShardTransport",
        schedule: FaultSchedule,
        *,
        clock: Any | None = None,
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self.clock = clock

    def roundtrip(self, payload: bytes) -> bytes:
        rules = self.schedule.consult("roundtrip")
        _record_fault_events(rules, seam="transport")
        for rule in rules:
            if rule.kind == "latency" and self.clock is not None:
                self.clock.advance(rule.latency_ms)
        for rule in rules:
            if rule.kind == "error":
                raise InjectedFaultError(rule.message)
        reply = self.inner.roundtrip(payload)
        if any(rule.kind == "corrupt" for rule in rules):
            return b"\xffcorrupted" + reply[:16]
        return reply

    def close(self) -> None:
        self.inner.close()


def fault_replica(
    replica_service: "ReplicaService",
    index: int,
    schedule: FaultSchedule,
    *,
    clock: Any | None = None,
) -> FaultInjectingService:
    """Wrap replica ``index`` of a live replica set with a fault injector.

    Mutates ``replica_service.replicas`` in place and returns the injector
    (its ``inner`` is the original replica stack, so the fault can be
    removed by assigning it back).
    """
    injector = FaultInjectingService(
        replica_service.replicas[index], schedule, clock=clock
    )
    replica_service.replicas[index] = injector
    return injector


def kill_worker(cluster: Any, shard_id: int, replica_index: int = 0) -> Any:
    """SIGKILL one shard worker process of a process-topology cluster.

    The chaos-testing counterpart of :func:`fault_replica` for
    ``worker_mode="processes"``: the worker dies for real (no schedules, no
    wrappers), its sockets reset, and every later call to that replica
    surfaces as a :class:`~repro.errors.WorkerConnectionError` — which the
    replica layer treats as fatal, opening the breaker immediately.
    Accepts a :class:`~repro.cluster.builder.ShardedCluster`, a
    :class:`~repro.cluster.router.ClusterRouter` built over workers, or a
    :class:`~repro.serving.worker.WorkerPool` directly; returns the killed
    worker's :class:`~repro.serving.worker.WorkerHandle`.
    """
    pool = getattr(cluster, "worker_pool", None)
    if pool is None:
        # A router's pool belongs to its current shard table.
        pool = getattr(getattr(cluster, "table", None), "worker_pool", None)
    if pool is None and hasattr(cluster, "kill"):
        pool = cluster
    if pool is None:
        raise KyrixError(
            "kill_worker needs a process-topology cluster "
            "(built with worker_mode='processes') or a WorkerPool"
        )
    return pool.kill(shard_id, replica_index)
