"""The self-driving control loop: observe, decide, act — continuously.

What :meth:`~repro.cluster.rebalancer.LoadRebalancer.rebalance` does on
demand, this module does *unattended*.  A :class:`ClusterAutopilot` runs
one control pass (:meth:`~ClusterAutopilot.tick`) on a fixed interval from
a background daemon thread and steers the cluster by one policy, **skew
rebalancing**: when per-shard traffic skew crosses the rebalancer's
threshold, trigger a load-weighted re-split at the same shard count.
Guarded by a *cooldown* (at most one migration per window) and
*hysteresis* (a migration disarms the trigger; it re-arms once skew falls
below ``threshold - hysteresis``, or — the persistent-skew escape hatch —
after ``rearm_windows`` full cooldown windows if skew never left the
band, so one bad split cannot disarm the loop forever), so an oscillating
hotspot cannot thrash the cluster with back-to-back migrations.  Request
volume alone never moves anything: the shard and replica counts change
only when an operator asks.

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
from .rebalancer import LoadRebalancer, RebalanceReport, load_skew

if TYPE_CHECKING:
    from .builder import ShardedCluster


@dataclass
class AutopilotAction:
    """One decision the control loop acted on (or explicitly skipped)."""

    #: ``"rebalance"`` or ``"error"``.
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
    """Background controller that keeps one cluster's load balanced.

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
        self._last_migration_ms: float | None = None
        self._last_loads: dict[int, int] = {}
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
            except Exception as error:
                with self._lock:
                    self._record(
                        AutopilotAction(
                            kind="error",
                            tick=self._tick_count,
                            at_ms=self.clock.now_ms,
                            detail={"error": f"{type(error).__name__}: {error}"},
                        )
                    )

    def _record(self, action: AutopilotAction) -> None:
        """Log one action and count it; the caller holds ``_lock``."""
        self._actions.append(action)
        registry = get_registry()
        registry.counter("autopilot_actions").bump()
        registry.counter(f"autopilot_{action.kind}").bump()

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
                "shard_count": len(table.shards),
                "replicas": table.config.cluster.replicas,
                "actions": dict(
                    TallyCounter(action.kind for action in self._actions)
                ),
            }

    # -- the control pass --------------------------------------------------------------

    def tick(self) -> list[AutopilotAction]:
        """Run one synchronous control pass; returns the actions it took.

        A pass migrates at most once, and only when the loop is armed, the
        cluster has at least two shards, the window saw ``min_requests``
        scatters with skew at or above the threshold, and the cooldown
        window since the last migration has passed.
        """
        tracer = get_tracer()
        with self._lock:
            self._tick_count += 1
            tick = self._tick_count
            now = self.clock.now_ms
            actions: list[AutopilotAction] = []
            with tracer.span("autopilot_tick", tick=tick) as span:
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
                # Skew over *this pass's* traffic, not the cumulative
                # counters: a control loop must react to what the load is
                # doing now, and hysteresis must be able to re-arm once a
                # hotspot genuinely dissipates — cumulative history would
                # pin the old skew forever.
                skew = load_skew(window)
                span.add_event(
                    "observed", skew=round(skew, 3), requests=delta, tick=tick
                )

                if not self._armed and self._should_rearm(skew, now):
                    self._armed = True

                cooled = (
                    self._last_migration_ms is None
                    or now - self._last_migration_ms
                    >= self.config.cooldown_s * 1000.0
                )
                if (
                    cooled
                    and self._armed
                    and self.router.shard_count >= 2
                    and skew >= self.rebalancer.skew_threshold
                    and delta >= self.rebalancer.min_requests
                ):
                    report = self.rebalancer.rebalance()
                    action = AutopilotAction(
                        kind="rebalance",
                        tick=tick,
                        at_ms=now,
                        detail={
                            "shards": f"{report.shard_count_before}->"
                            f"{report.shard_count_after}",
                            "skew": round(skew, 3),
                            "swapped": report.swapped,
                        },
                        report=report,
                    )
                    actions.append(action)
                    self._record(action)
                    span.add_event("autopilot_rebalance", **action.detail)
                    if report.swapped:
                        self._last_migration_ms = now
                        self._armed = False
                        # The swap cleared the traffic counters.
                        loads = {}

                self._last_loads = dict(loads)
            return actions

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
