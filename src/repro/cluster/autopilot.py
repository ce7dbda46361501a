"""The self-driving control loop: observe, decide, act — continuously.

Everything the cluster can already do on demand — online rebalancing
(:mod:`repro.cluster.rebalancer`), shard-count changes and replica-count
changes — this module does *unattended*.  A :class:`ClusterAutopilot` runs
one control pass (:meth:`~ClusterAutopilot.tick`) on a fixed interval from
a background daemon thread and steers the cluster through three policies:

1. **Skew rebalancing** — when per-shard traffic skew crosses the
   rebalancer's threshold, trigger a load-weighted re-split.  Guarded by
   a *cooldown* (at most one migration per window) and *hysteresis* (a
   migration disarms the trigger; it re-arms once skew falls below
   ``threshold - hysteresis``, or — the persistent-skew escape hatch —
   after ``rearm_windows`` full cooldown windows if skew never left the
   band, so one bad split cannot disarm the loop forever), so an
   oscillating hotspot cannot thrash the cluster with back-to-back
   migrations.
2. **Shard autoscaling** — sustained volume doubles the shard count
   (2→4→8, clamped to ``[min_shards, max_shards]``); a configurable run
   of idle ticks halves it.  Decisions delegate to
   :meth:`~repro.cluster.rebalancer.LoadRebalancer.propose_shard_count`.
3. **Replica autoscaling** — per-replica attempt pressure above
   ``replica_pressure`` adds a replica per shard (up to ``max_replicas``);
   the idle path drops back to one.

Each pass reads the cluster through **one**
:class:`~repro.cluster.router.ShardTable` snapshot (shard count, replica
count, worker pool and partitionings of one epoch), so a
decision is never assembled from two generations.

The clock is pluggable (anything with ``now_ms``), so tests drive
cooldown windows deterministically with
:class:`~repro.metrics.timer.VirtualClock` and call :meth:`tick` directly
instead of sleeping against the real thread.  Every pass runs under an
``autopilot_tick`` span and every action bumps the ``autopilot_actions``
telemetry counter (plus a per-kind counter), so ``/metrics`` shows what
the loop has been deciding.
"""

from __future__ import annotations

import threading
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..config import AutopilotConfig
from ..serving.replica import MonotonicClock
from ..telemetry import get_registry, get_tracer
from .rebalancer import LoadRebalancer, RebalanceReport

if TYPE_CHECKING:
    from .builder import ShardedCluster
    from .router import ShardTable


def _window_skew(window: dict[int, int]) -> float:
    """``max / mean`` over one pass's per-shard request counts."""
    total = sum(window.values())
    if not window or total <= 0:
        return 1.0
    return max(window.values()) / (total / len(window))


@dataclass
class AutopilotAction:
    """One decision the control loop acted on (or explicitly skipped)."""

    #: ``"rebalance"`` / ``"grow"`` / ``"shrink"`` / ``"replica_scale"`` /
    #: ``"error"``.
    kind: str
    #: The control pass that produced it (1-based).
    tick: int
    #: Autopilot-clock timestamp of the decision.
    at_ms: float
    detail: dict[str, Any] = field(default_factory=dict)
    #: The migration report, for actions that swapped the shard table.
    report: RebalanceReport | None = field(default=None, repr=False)

    def describe(self) -> dict[str, Any]:
        described: dict[str, Any] = {"kind": self.kind, "tick": self.tick}
        described.update(self.detail)
        if self.report is not None:
            described["report"] = self.report.describe()
        return described


class ClusterAutopilot:
    """Background controller that keeps one cluster balanced and healthy.

    Construct over a built :class:`~repro.cluster.builder.ShardedCluster`
    (``build_cluster(..., autopilot=True)`` does this and calls
    :meth:`start`).  The loop itself is just :meth:`tick` on a timer:
    tests call :meth:`tick` directly — with a
    :class:`~repro.metrics.timer.VirtualClock` — and never need the
    thread.  All decision state lives behind one lock, so a manual tick
    and the background thread never interleave mid-pass.
    """

    def __init__(
        self,
        cluster: "ShardedCluster",
        *,
        config: AutopilotConfig | None = None,
        clock: Any = None,
        rebalancer: LoadRebalancer | None = None,
    ) -> None:
        self.router = cluster.router
        self.config = config or self.router.config.cluster.autopilot
        self.config.validate()
        self.rebalancer = rebalancer or cluster.rebalancer
        self.clock = clock or MonotonicClock()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._tick_count = 0
        self._armed = True
        self._idle_ticks = 0
        self._last_migration_ms: float | None = None
        self._last_loads: dict[int, int] = {}
        self._last_attempts = 0
        self._actions: deque[AutopilotAction] = deque(maxlen=256)

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "ClusterAutopilot":
        """Start the background control thread (idempotent)."""
        with self._lock:
            if self._thread is None:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name="kyrix-autopilot", daemon=True
                )
                self._thread.start()
        return self

    def close(self) -> None:
        """Stop the control thread; a mid-flight pass finishes first."""
        self._stop.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=60.0)

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.tick()
            except Exception as error:  # pragma: no cover - defensive loop guard
                self._actions.append(
                    AutopilotAction(
                        kind="error",
                        tick=self._tick_count,
                        at_ms=self.clock.now_ms,
                        detail={"error": f"{type(error).__name__}: {error}"},
                    )
                )

    # -- introspection -----------------------------------------------------------------

    @property
    def actions(self) -> list[AutopilotAction]:
        """The retained action log (oldest first, bounded)."""
        with self._lock:
            return list(self._actions)

    def describe(self) -> dict[str, Any]:
        table = self.router.table
        with self._lock:
            return {
                "ticks": self._tick_count,
                "armed": self._armed,
                "idle_ticks": self._idle_ticks,
                "shard_count": len(table.shards),
                "replicas": table.config.cluster.replicas,
                "actions": dict(
                    TallyCounter(action.kind for action in self._actions)
                ),
            }

    # -- the control pass --------------------------------------------------------------

    def tick(self) -> list[AutopilotAction]:
        """Run one synchronous control pass; returns the actions it took.

        A pass takes at most **one** migration decision — grow/shrink
        beats skew-rebalance beats replica scaling — gated by the cooldown
        window.
        """
        registry = get_registry()
        tracer = get_tracer()
        with self._lock:
            self._tick_count += 1
            tick = self._tick_count
            now = self.clock.now_ms
            actions: list[AutopilotAction] = []
            with tracer.span("autopilot_tick", tick=tick) as span:
                # One snapshot per pass: every decision below reads this
                # generation, never a half-swapped one.
                table = self.router.table

                loads = self.rebalancer.shard_loads()
                if any(
                    loads.get(shard_id, 0) < count
                    for shard_id, count in self._last_loads.items()
                ):
                    # A swap cleared the counters since the last pass.
                    window = dict(loads)
                else:
                    window = {
                        shard_id: count - self._last_loads.get(shard_id, 0)
                        for shard_id, count in loads.items()
                    }
                delta = sum(window.values())
                attempts = self._replica_attempts()
                attempt_delta = attempts - self._last_attempts
                if attempt_delta < 0:
                    attempt_delta = attempts
                # Skew over *this pass's* traffic, not the cumulative
                # counters: a control loop must react to what the load is
                # doing now, and hysteresis must be able to re-arm once a
                # hotspot genuinely dissipates — cumulative history would
                # pin the old skew forever.
                skew = _window_skew(window)
                span.add_event(
                    "observed", skew=round(skew, 3), requests=delta, tick=tick
                )

                if self._idle_ticks_qualify(delta):
                    self._idle_ticks += 1
                else:
                    self._idle_ticks = 0
                if not self._armed and self._should_rearm(skew, now):
                    self._armed = True

                cooled = (
                    self._last_migration_ms is None
                    or now - self._last_migration_ms
                    >= self.config.cooldown_s * 1000.0
                )
                decision = self._decide(table, delta, attempt_delta, skew)
                if decision is not None and cooled:
                    kind, target_shards, target_replicas = decision
                    report = self.rebalancer.rebalance(
                        target_shards, replicas=target_replicas, reason=kind
                    )
                    action = AutopilotAction(
                        kind=kind,
                        tick=tick,
                        at_ms=now,
                        detail={
                            "shards": f"{report.shard_count_before}->"
                            f"{report.shard_count_after}",
                            "replicas": target_replicas,
                            "skew": round(skew, 3),
                            "swapped": report.swapped,
                        },
                        report=report,
                    )
                    actions.append(action)
                    if report.swapped:
                        self._last_migration_ms = now
                        self._armed = False
                        self._idle_ticks = 0
                        # The swap cleared the traffic counters.
                        loads = {}
                        attempts = 0

                self._last_loads = dict(loads)
                self._last_attempts = attempts
                for action in actions:
                    self._actions.append(action)
                    registry.counter("autopilot_actions").bump()
                    registry.counter(f"autopilot_{action.kind}").bump()
                    span.add_event(f"autopilot_{action.kind}", **action.detail)
            return actions

    def _idle_ticks_qualify(self, delta: int) -> bool:
        return delta <= self.config.shrink_requests

    def _should_rearm(self, skew: float, now: float) -> bool:
        """Whether the disarmed skew trigger may fire again.

        Two ways back: the hysteresis band (skew fell clearly below the
        trigger — the hotspot dissipated or the split fixed it), or the
        persistent-skew escape hatch (``rearm_windows`` full cooldown
        windows passed with skew still in the band — the previous split
        demonstrably did not fix it, and retrying with a fresher load
        histogram is convergence, not thrash).
        """
        if skew < self.rebalancer.skew_threshold - self.config.hysteresis:
            return True
        return (
            self._last_migration_ms is not None
            and now - self._last_migration_ms
            >= self.config.rearm_windows * self.config.cooldown_s * 1000.0
        )

    def _replica_attempts(self) -> int:
        """Total replica attempts on the current generation's sets (each
        generation builds its own, so the count starts at the last swap)."""
        return sum(
            count
            for replica_set in self.router.replica_sets().values()
            for counter, count in replica_set.stats.snapshot().items()
            if counter.startswith("replica") and counter.endswith("_requests")
        )

    def _decide(
        self, table: "ShardTable", delta: int, attempt_delta: int, skew: float
    ) -> tuple[str, int, int] | None:
        """Pick at most one migration for this pass (kind, shards, replicas)."""
        cfg = self.config
        current = len(table.shards)
        replicas = table.config.cluster.replicas
        idle = self._idle_ticks >= cfg.shrink_idle_ticks
        target = self.rebalancer.propose_shard_count(
            current,
            delta,
            min_shards=cfg.min_shards,
            max_shards=cfg.max_shards,
            grow_requests=cfg.grow_requests,
            # Halving only after a sustained idle run, not one quiet tick.
            shrink_requests=cfg.shrink_requests if idle else -1,
        )
        if target > current:
            return ("grow", target, replicas)
        if target < current:
            # Shrinking shards also folds replicas back to one: an idle
            # cluster needs neither the capacity nor the redundancy cost.
            return ("shrink", target, 1 if replicas > 1 else replicas)
        if idle and replicas > 1:
            return ("replica_scale", current, replicas - 1)
        if (
            self._armed
            and current >= 2
            and skew >= self.rebalancer.skew_threshold
            and delta >= self.rebalancer.min_requests
        ):
            return ("rebalance", current, replicas)
        slots = max(1, current * replicas)
        # Process/replica topologies report per-attempt counts; plain
        # thread shards do not, so fall back to the scatter volume.
        pressure = (attempt_delta or delta) / slots
        if pressure >= cfg.replica_pressure and replicas < cfg.max_replicas:
            return ("replica_scale", current, replicas + 1)
        return None
