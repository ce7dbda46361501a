"""Replica sets: shard-level load balancing, circuit breaking and failover.

A :class:`ReplicaService` fronts N interchangeable replicas of one shard's
serving stack and implements the :class:`~repro.serving.base.DataService`
protocol itself, so it drops into a middleware stack anywhere a single
service would go (the cluster builder puts it directly behind the router,
one per shard)::

    ClusterRouter ──> ReplicaService ──┬─> replica 0: Transport∘Serialized∘engine
                                       ├─> replica 1: Transport∘Serialized∘engine
                                       └─> replica 2: ...

Three concerns live here and nowhere else:

* **Selection** — a pluggable policy picks the replica for each request:
  ``round_robin`` spreads requests evenly (within ±1 across the healthy
  set) and ``least_inflight`` steers to the replica with the fewest
  requests currently executing.
* **Health** — each replica carries a circuit breaker: after
  ``breaker_threshold`` *consecutive* failures the breaker opens and the
  replica stops receiving traffic; after ``breaker_reset_s`` (measured on
  the injected clock, so tests drive it with a
  :class:`~repro.metrics.timer.VirtualClock`) one trial request probes the
  replica — success closes the breaker, failure re-opens it with a fresh
  timer.  A :class:`~repro.errors.WorkerConnectionError` (the replica's
  worker process refused or tore the connection — it is *gone*, not
  merely erroring) is fatal and opens the breaker on the first failure.
* **Failover** — a replica exception (or a response that arrived after
  ``timeout_ms`` of clock time, raised as
  :class:`~repro.errors.ReplicaTimeoutError`) marks the attempt failed and
  the request retries on the next replica the policy picks, never reusing a
  replica it already tried.  Only when the set is exhausted does
  :class:`~repro.errors.AllReplicasFailedError` surface, carrying every
  per-replica cause.

Unlike every other middleware, this layer holds *multiple* children, so it
exposes them as ``children`` (and the richer ``replicas`` accessor) for
:func:`~repro.serving.base.unwrap` to traverse into.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

from ..config import REPLICA_POLICIES
from ..errors import (
    AllReplicasFailedError,
    FetchError,
    ReplicaTimeoutError,
    WorkerConnectionError,
)
from ..telemetry import get_tracer

if TYPE_CHECKING:
    from ..compiler.plan import CompiledApplication
    from ..config import KyrixConfig
    from ..net.protocol import DataRequest, DataResponse
    from .base import DataService

__all__ = ["REPLICA_POLICIES", "ReplicaService", "ReplicaSetStats"]

class MonotonicClock:
    """Real time behind the same ``now_ms`` surface as ``VirtualClock``."""

    @property
    def now_ms(self) -> float:
        return time.monotonic() * 1000.0


class ReplicaHealth:
    """Per-replica circuit-breaker state (mutated under the set's lock)."""

    __slots__ = ("consecutive_failures", "open_since_ms", "trial_inflight")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        #: Clock time the breaker opened, or ``None`` while closed.
        self.open_since_ms: float | None = None
        #: Whether an open breaker's single trial probe is currently out.
        self.trial_inflight = False


class ReplicaSetStats:
    """Per-replica attribution counters kept by a :class:`ReplicaService`.

    ``requests``, ``failovers``, ``breaker_opens``, ``exhausted`` plus
    ``replica{i}_requests`` / ``replica{i}_failures`` per replica, in one
    dict written under the set's own lock, so the totals are exact under
    concurrent traffic.  A counter appears once it first moves.
    """

    def __init__(self, replica_count: int) -> None:
        self.replica_count = replica_count
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, *counters: str) -> None:
        """Add one to each named counter (called by ReplicaService)."""
        with self._lock:
            for counter in counters:
                self._counts[counter] = self._counts.get(counter, 0) + 1

    # -- reading ------------------------------------------------------------

    @property
    def requests(self) -> int:
        return self._counts.get("requests", 0)

    @property
    def failovers(self) -> int:
        return self._counts.get("failovers", 0)

    @property
    def breaker_opens(self) -> int:
        return self._counts.get("breaker_opens", 0)

    def requests_for(self, index: int) -> int:
        return self._counts.get(f"replica{index}_requests", 0)

    def failures_for(self, index: int) -> int:
        return self._counts.get(f"replica{index}_failures", 0)

    def per_replica_requests(self) -> dict[int, int]:
        return {i: self.requests_for(i) for i in range(self.replica_count)}

    def per_replica_failures(self) -> dict[int, int]:
        return {i: self.failures_for(i) for i in range(self.replica_count)}

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


class ReplicaService:
    """A :class:`DataService` load-balancing over N replica services.

    Parameters
    ----------
    replicas:
        The replica services (same data, independent serving stacks).
    policy:
        One of :data:`REPLICA_POLICIES`.
    breaker_threshold / breaker_reset_s:
        Circuit-breaker tuning (consecutive failures to open; seconds of
        clock time before a trial probe).
    timeout_ms:
        When set, a replica call during which the clock advanced past this
        budget counts as a failure (:class:`ReplicaTimeoutError`) and fails
        over, discarding the late response.
    clock:
        Anything with a ``now_ms`` property — a
        :class:`~repro.metrics.timer.VirtualClock` for deterministic tests,
        real time by default.
    """

    def __init__(
        self,
        replicas: Sequence["DataService"],
        *,
        policy: str = "round_robin",
        breaker_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        timeout_ms: float | None = None,
        clock: Any | None = None,
    ) -> None:
        if not replicas:
            raise FetchError("a replica set needs at least one replica")
        if policy not in REPLICA_POLICIES:
            raise FetchError(
                f"unknown replica policy {policy!r}; expected one of {REPLICA_POLICIES}"
            )
        if breaker_threshold < 1:
            raise FetchError("breaker_threshold must be >= 1")
        self._replicas: list["DataService"] = list(replicas)
        self.policy = policy
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.timeout_ms = timeout_ms
        self.clock = clock if clock is not None else MonotonicClock()
        self.stats = ReplicaSetStats(len(self._replicas))
        self._lock = threading.Lock()
        self._rr_counter = 0
        self._inflight = [0] * len(self._replicas)
        self._health = [ReplicaHealth() for _ in self._replicas]

    # -- topology -----------------------------------------------------------

    @property
    def replicas(self) -> list["DataService"]:
        """The live replica list (tests swap in fault injectors here)."""
        return self._replicas

    @property
    def children(self) -> tuple["DataService", ...]:
        """The layer's children, traversed by :func:`~repro.serving.base.unwrap`."""
        return tuple(self._replicas)

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    @property
    def inflight(self) -> list[int]:
        """A snapshot of per-replica in-flight request counts."""
        with self._lock:
            return list(self._inflight)

    def breaker_open(self, index: int) -> bool:
        """Whether replica ``index``'s circuit breaker is currently open."""
        with self._lock:
            return self._health[index].open_since_ms is not None

    def __repr__(self) -> str:
        return (
            f"ReplicaService(policy={self.policy!r}, "
            f"replicas={len(self._replicas)})"
        )

    # -- selection ----------------------------------------------------------

    def _admits(self, index: int, now_ms: float) -> bool:
        """Closed breaker, or an open one ready for its single trial probe.

        An open breaker admits exactly one in-flight trial after the reset
        window elapses; concurrent requests keep avoiding the replica until
        that probe settles (success closes the breaker, failure re-arms the
        window).
        """
        health = self._health[index]
        if health.open_since_ms is None:
            return True
        if health.trial_inflight:
            return False
        return now_ms - health.open_since_ms >= self.breaker_reset_s * 1000.0

    def _select(self, tried: set[int]) -> int | None:
        """Pick the next replica to attempt, or ``None`` when exhausted.

        Prefers untried replicas whose breakers admit traffic; when every
        untried breaker is open and cold, falls back to probing them anyway
        (an all-open set must not turn into a permanent outage).
        """
        with self._lock:
            untried = [i for i in range(len(self._replicas)) if i not in tried]
            if not untried:
                return None
            now_ms = self.clock.now_ms
            candidates = [i for i in untried if self._admits(i, now_ms)]
            if not candidates:
                candidates = untried
            if self.policy == "least_inflight":
                index = min(candidates, key=lambda i: (self._inflight[i], i))
            else:  # round_robin
                index = candidates[self._rr_counter % len(candidates)]
                self._rr_counter += 1
            if self._health[index].open_since_ms is not None:
                self._health[index].trial_inflight = True
            self._inflight[index] += 1
            return index

    # -- health -------------------------------------------------------------

    def _finish_attempt(self, index: int, ok: bool, *, fatal: bool = False) -> None:
        opened = False
        with self._lock:
            self._inflight[index] -= 1
            health = self._health[index]
            health.trial_inflight = False
            if ok:
                health.consecutive_failures = 0
                health.open_since_ms = None
            else:
                health.consecutive_failures += 1
                now_ms = self.clock.now_ms
                if health.open_since_ms is not None:
                    # A failed trial probe: re-open with a fresh timer.
                    health.open_since_ms = now_ms
                elif fatal or health.consecutive_failures >= self.breaker_threshold:
                    # A fatal failure (the worker's connection was refused —
                    # the process behind the replica is gone) opens the
                    # breaker immediately instead of burning ``threshold``
                    # doomed attempts on a dead endpoint.
                    health.open_since_ms = now_ms
                    opened = True
        counters = [f"replica{index}_requests"]
        if not ok:
            counters.append(f"replica{index}_failures")
        if opened:
            counters.append("breaker_opens")
        self.stats.count(*counters)

    # -- failover core ------------------------------------------------------

    def handle(self, request: "DataRequest") -> "DataResponse":
        """Answer on one replica, failing over until one answers or all fail."""
        self.stats.count("requests")
        causes: dict[int, BaseException] = {}
        tried: set[int] = set()
        attempts = 0
        # Every replica is tried at most once: _select never re-picks one.
        while (index := self._select(tried)) is not None:
            attempts += 1
            tried.add(index)
            start_ms = self.clock.now_ms
            try:
                with get_tracer().span(
                    "replica_attempt",
                    replica=index,
                    attempt=attempts,
                    breaker_open=self.breaker_open(index),
                ) as span:
                    response = self._replicas[index].handle(request)
                    if (
                        self.timeout_ms is not None
                        and self.clock.now_ms - start_ms > self.timeout_ms
                    ):
                        raise ReplicaTimeoutError(
                            f"replica {index} took "
                            f"{self.clock.now_ms - start_ms:.1f} ms "
                            f"(> {self.timeout_ms} ms budget)"
                        )
                    span.set_attribute("ok", True)
            except Exception as error:  # noqa: BLE001 - failover boundary
                causes[index] = error
                self._finish_attempt(
                    index, ok=False, fatal=isinstance(error, WorkerConnectionError)
                )
                continue
            self._finish_attempt(index, ok=True)
            if causes:
                self.stats.count("failovers")
            return response
        self.stats.count("exhausted")
        raise AllReplicasFailedError(causes, attempts=attempts)

    # -- DataService --------------------------------------------------------

    @property
    def compiled(self) -> "CompiledApplication":
        return self._replicas[0].compiled

    @property
    def config(self) -> "KyrixConfig":
        return self._replicas[0].config

    def close(self) -> None:
        for replica in self._replicas:
            replica.close()
