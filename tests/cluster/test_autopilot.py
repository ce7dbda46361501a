"""Autopilot control-loop behaviour: hysteresis, cooldown, telemetry.

Every test drives :meth:`~repro.cluster.autopilot.ClusterAutopilot.tick`
directly with a :class:`~repro.metrics.timer.VirtualClock` — the
background thread is exercised only by the lifecycle tests, so nothing
else here sleeps or races.  The hysteresis suite pins the nastiest edge: a
hotspot whose skew sits *exactly at* the rebalance threshold on every
pass must still produce at most one migration per cooldown window, in
both worker topologies.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.experiments import build_stack, hotspot_box_requests
from repro.cluster import (
    ClusterAutopilot,
    ClusterRouter,
    LoadRebalancer,
    build_cluster,
)
from repro.config import AutopilotConfig, KyrixConfig
from repro.errors import KyrixError
from repro.metrics.timer import VirtualClock
from repro.serving import build_service, unwrap
from repro.telemetry import configure as configure_telemetry
from repro.telemetry import get_registry

from tests.cluster.conftest import payload_bytes

TOPOLOGIES = ("threads", "processes")


@pytest.fixture(scope="module")
def dots_stack():
    return build_stack("skewed", scale="tiny", tile_sizes=())


def hotspot_trace(stack, cluster, steps=80):
    """Box requests confined to shard 0's *current* region.

    With traffic strictly inside one region of an N-shard partitioning
    the per-shard load is ``{0: steps, others: 0}``, so the measured skew
    is exactly ``N == max/mean`` — for a 2-shard grid that is exactly the
    default ``SKEW_THRESHOLD`` of 2.0, the hysteresis edge.
    """
    region = cluster.partitionings[stack.canvas_id].region(0).rect
    return hotspot_box_requests("dots", stack.canvas_id, 0, region, steps=steps)


def replay(router, requests):
    """Serve every request as a fresh scatter (the router cache would
    otherwise absorb the repeats and hide the load from the counters)."""
    for request in requests:
        router.cache.clear()
        router.handle(request)


def migrations(autopilot):
    return [
        action
        for action in autopilot.actions
        if action.kind == "rebalance"
        and action.report is not None
        and action.report.swapped
    ]


# -- configuration -----------------------------------------------------------------


def test_autopilot_config_validation():
    AutopilotConfig().validate()
    with pytest.raises(KyrixError):
        AutopilotConfig(interval_s=0.0).validate()
    with pytest.raises(KyrixError):
        AutopilotConfig(hysteresis=-0.1).validate()
    with pytest.raises(KyrixError):
        AutopilotConfig(rearm_windows=0).validate()


def test_autopilot_config_round_trips_through_dict(dots_stack):
    config = KyrixConfig()
    config.cluster.autopilot.enabled = True
    config.cluster.autopilot.cooldown_s = 12.0
    restored = KyrixConfig.from_dict(config.to_dict())
    assert isinstance(restored.cluster.autopilot, AutopilotConfig)
    assert restored.cluster.autopilot.enabled is True
    assert restored.cluster.autopilot.cooldown_s == 12.0


def test_a_deleted_autoscaling_key_is_refused_by_name():
    """The shard/replica autoscaling knobs are gone, with no aliases: a
    saved configuration naming one fails loudly instead of being ignored."""
    with pytest.raises(KyrixError, match=r"cluster\.autopilot\.grow_requests"):
        KyrixConfig.from_dict({"cluster": {"autopilot": {"grow_requests": 256}}})


# -- hysteresis / cooldown ---------------------------------------------------------


@pytest.mark.parametrize("worker_mode", TOPOLOGIES)
def test_oscillation_at_threshold_one_migration_per_window(dots_stack, worker_mode):
    """Skew pinned exactly at the threshold must not thrash the cluster.

    Every pass replays a hotspot confined to the current shard 0 region,
    so the autopilot sees skew == 2.0 == threshold on *every* tick.  The
    first pass migrates; after that the cooldown and the hysteresis
    disarm must each independently hold further migrations to at most
    one per cooldown window.
    """
    cluster = build_cluster(
        dots_stack.backend,
        shard_count=2,
        strategy="grid",
        worker_mode=worker_mode,
    )
    clock = VirtualClock()
    autopilot = ClusterAutopilot(cluster, clock=clock)
    cooldown_ms = autopilot.config.cooldown_s * 1000.0
    try:
        # First window: the armed trigger fires exactly once.
        replay(cluster.router, hotspot_trace(dots_stack, cluster))
        assert autopilot.tick(), "armed autopilot must act on threshold skew"
        assert len(migrations(autopilot)) == 1

        # Oscillate at the threshold for the rest of the window: traffic
        # re-concentrates on one shard of whatever partitioning is
        # current, so skew == threshold on every pass.
        for _ in range(4):
            clock.advance(cooldown_ms / 8)
            replay(cluster.router, hotspot_trace(dots_stack, cluster))
            autopilot.tick()
        assert len(migrations(autopilot)) == 1, (
            "cooldown window must cap migrations at one"
        )

        # Past the window the trigger is still *disarmed*: skew never
        # fell below threshold - hysteresis, so hysteresis alone must
        # keep holding the line.
        clock.advance(cooldown_ms)
        replay(cluster.router, hotspot_trace(dots_stack, cluster))
        autopilot.tick()
        assert len(migrations(autopilot)) == 1, (
            "hysteresis must hold while skew never left the trigger band"
        )

        # A genuinely quiet pass (skew samples 1.0) re-arms; the next
        # hotspot inside a fresh window may migrate exactly once more.
        autopilot.tick()
        replay(cluster.router, hotspot_trace(dots_stack, cluster))
        clock.advance(cooldown_ms)
        autopilot.tick()
        assert len(migrations(autopilot)) == 2
    finally:
        cluster.close()


def test_persistent_skew_rearms_after_rearm_windows(dots_stack):
    """One bad split must not disarm the loop forever.

    If skew never leaves the trigger band (so the hysteresis re-arm
    below ``threshold - hysteresis`` never fires), the autopilot retries
    with a fresher load histogram after ``rearm_windows`` full cooldown
    windows — convergence without thrash: still at most one migration
    per window.
    """
    cluster = build_cluster(
        dots_stack.backend, shard_count=2, strategy="grid"
    )
    clock = VirtualClock()
    autopilot = ClusterAutopilot(cluster, clock=clock)
    cooldown_ms = autopilot.config.cooldown_s * 1000.0
    assert autopilot.config.rearm_windows == 2
    try:
        replay(cluster.router, hotspot_trace(dots_stack, cluster))
        assert autopilot.tick()
        assert len(migrations(autopilot)) == 1

        # One window later: cooldown has expired but the trigger is
        # still disarmed (skew stayed pinned in the band) and the
        # rearm deadline (2 windows) has not passed.
        clock.advance(cooldown_ms + 1)
        replay(cluster.router, hotspot_trace(dots_stack, cluster))
        autopilot.tick()
        assert len(migrations(autopilot)) == 1

        # Two windows after the migration: the escape hatch re-arms the
        # trigger and the persistent skew earns exactly one retry.
        clock.advance(cooldown_ms)
        replay(cluster.router, hotspot_trace(dots_stack, cluster))
        autopilot.tick()
        assert len(migrations(autopilot)) == 2
    finally:
        cluster.close()


def shifting_hotspot_run(stack, *, piloted, epochs):
    """Serve a hotspot that jumps from shard 0's region to shard 1's.

    ``epochs`` windows of traffic confined to one initial grid region,
    then ``epochs`` more confined to the other; a piloted run ticks the
    autopilot after every window, one full cooldown apart on the virtual
    clock, the control run serves the identical schedule unattended.
    Probe requests on both regions are re-served after every window and
    compared with their pre-run bytes.  Returns the per-window skews, the
    migrations and the number of probe payloads that ever changed.
    """
    cluster = build_cluster(stack.backend, shard_count=2, strategy="grid")
    clock = VirtualClock()
    # The probes are balanced background traffic, so a window's skew tops
    # out just below 2.0 — the default trigger, and the theoretical
    # maximum for two shards; trigger below the ceiling, as an operator
    # facing mixed traffic would.
    autopilot = (
        ClusterAutopilot(
            cluster,
            clock=clock,
            rebalancer=LoadRebalancer(cluster, skew_threshold=1.6),
        )
        if piloted
        else None
    )
    try:
        router = cluster.router
        partitioning = cluster.partitionings[stack.canvas_id]
        regions = (partitioning.region(0).rect, partitioning.region(1).rect)
        probes = [
            request
            for region in regions
            for request in hotspot_box_requests(
                "dots", stack.canvas_id, 0, region, steps=4
            )
        ]
        router.cache.clear()
        baseline = [payload_bytes(router.handle(probe)) for probe in probes]
        assert any(payload != b"[]" for payload in baseline)

        skews = []
        violations = 0
        for window in range(epochs * 2):
            trace = hotspot_box_requests(
                "dots", stack.canvas_id, 0, regions[window // epochs], steps=80
            )
            before = cluster.rebalancer.shard_loads()
            replay(router, trace)
            after = cluster.rebalancer.shard_loads()
            served = [after[shard] - before[shard] for shard in after]
            skews.append(max(served) / (sum(served) / len(served)))
            if autopilot is not None:
                autopilot.tick()
                clock.advance(autopilot.config.cooldown_s * 1000.0 + 1.0)
            router.cache.clear()
            violations += sum(
                payload_bytes(router.handle(probe)) != expected
                for probe, expected in zip(probes, baseline)
            )
        return skews, migrations(autopilot) if piloted else [], violations
    finally:
        cluster.close()


def test_autopilot_converges_on_a_shifting_hotspot(dots_stack):
    """Convergence against a static control: the autopilot re-splits each
    hotspot location with a bounded number of migrations and recovers the
    skew a static partitioning never recovers, byte-invisibly."""
    epochs = 5
    skews, swaps, violations = shifting_hotspot_run(
        dots_stack, piloted=True, epochs=epochs
    )
    static_skews, static_swaps, static_violations = shifting_hotspot_run(
        dots_stack, piloted=False, epochs=epochs
    )
    # Cooldown + hysteresis bound the migrations: a couple per hotspot
    # location (split A, a reactive split right after the shift driven
    # by a histogram the old hotspot still dominates, one rearm_windows
    # retry that lands the boundary inside B) — never one per window.
    assert 2 <= len(swaps) <= 5, [action.describe() for action in swaps]
    assert {action.kind for action in swaps} == {"rebalance"}
    # The window right after the shift is hotspot-shaped again; by the
    # final window the autopilot has re-split it away.
    assert skews[0] == pytest.approx(2.0) and skews[epochs - 1] < 1.6
    assert skews[epochs] > 1.6
    assert skews[-1] < skews[epochs]
    # The control arm: the same schedule without the loop stays pinned at
    # maximal skew in every window, so the recovery above is the
    # autopilot's doing, not the trace's.
    assert static_swaps == []
    assert static_skews == pytest.approx([2.0] * (epochs * 2))
    assert skews[-1] < static_skews[-1]
    # The law: migrations never change served bytes.
    assert violations == 0 and static_violations == 0


def test_rebalance_epoch_and_parity_across_autopilot_migration(dots_stack):
    cluster = build_cluster(
        dots_stack.backend, shard_count=2, strategy="grid"
    )
    autopilot = ClusterAutopilot(cluster, clock=VirtualClock())
    try:
        requests = hotspot_trace(dots_stack, cluster)
        cluster.router.cache.clear()
        before = [payload_bytes(cluster.router.handle(r)) for r in requests[:10]]
        assert any(payload != b"[]" for payload in before)
        replay(cluster.router, requests)
        assert autopilot.tick()
        assert cluster.router.epoch == 1
        cluster.router.cache.clear()
        after = [payload_bytes(cluster.router.handle(r)) for r in requests[:10]]
        assert after == before
    finally:
        cluster.close()


# -- volume alone moves nothing ---------------------------------------------------


def test_sustained_balanced_load_takes_no_action(dots_stack):
    """Heavy traffic spread evenly over the shards is not a reason to
    migrate: the pass leaves the shard and replica counts as they are."""
    cluster = build_cluster(dots_stack.backend, shard_count=2, strategy="grid")
    autopilot = ClusterAutopilot(cluster, clock=VirtualClock())
    try:
        partitioning = cluster.partitionings[dots_stack.canvas_id]
        for shard in (0, 1):
            replay(
                cluster.router,
                hotspot_box_requests(
                    "dots", dots_stack.canvas_id, 0,
                    partitioning.region(shard).rect, steps=150,
                ),
            )
        assert cluster.rebalancer.shard_loads() == {0: 150, 1: 150}
        assert autopilot.tick() == []
        served = cluster.router.config.cluster
        assert (cluster.router.shard_count, served.replicas) == (2, 1)
        assert cluster.router.epoch == 0
    finally:
        cluster.close()


# -- lifecycle / telemetry ---------------------------------------------------------


def test_build_service_attaches_and_stops_autopilot(dots_stack):
    service = build_service(
        dots_stack.backend.config,
        backend=dots_stack.backend,
        precompute=False,
        shard_count=2,
        strategy="grid",
        autopilot=True,
    )
    router = unwrap(service, ClusterRouter)
    autopilot = router.cluster.autopilot
    assert autopilot is not None
    assert autopilot._thread is not None and autopilot._thread.is_alive()
    assert autopilot.rebalancer is router.cluster.rebalancer
    service.close()
    assert autopilot._thread is None


class _BrokenSensor(LoadRebalancer):
    def shard_loads(self):
        raise RuntimeError("load sensor down")


def test_background_pass_errors_are_logged_and_counted(dots_stack):
    """A pass that raises on the real thread leaves an ``error`` action in
    the log and bumps ``autopilot_actions`` and ``autopilot_error``, like
    any other action; the thread keeps ticking."""
    cluster = build_cluster(dots_stack.backend, shard_count=2, strategy="grid")
    autopilot = ClusterAutopilot(
        cluster,
        config=AutopilotConfig(interval_s=0.01),
        rebalancer=_BrokenSensor(cluster),
    )
    before = get_registry().counters_snapshot()
    try:
        thread = autopilot.start()._thread
        deadline = time.monotonic() + 10.0
        while len(autopilot.actions) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        autopilot.close()
        cluster.close()
    assert not thread.is_alive()
    errors = autopilot.actions
    assert len(errors) >= 2
    assert {action.kind for action in errors} == {"error"}
    assert errors[0].detail == {"error": "RuntimeError: load sensor down"}
    after = get_registry().counters_snapshot()
    for counter in ("autopilot_actions", "autopilot_error"):
        assert after.get(counter, 0) - before.get(counter, 0) == len(errors)


def test_autopilot_actions_counted_in_telemetry(dots_stack):
    configure_telemetry(dots_stack.backend.config.telemetry, enabled=True)
    try:
        cluster = build_cluster(dots_stack.backend, shard_count=2, strategy="grid")
        autopilot = ClusterAutopilot(cluster, clock=VirtualClock())
        try:
            replay(cluster.router, hotspot_trace(dots_stack, cluster))
            autopilot.tick()
            counters = get_registry().counters_snapshot()
            assert counters.get("autopilot_actions", 0) >= 1
            assert counters.get("autopilot_rebalance", 0) >= 1
            rendered = get_registry().render_prometheus()
            assert 'kyrix_events_total{event="autopilot_rebalance"}' in rendered
            described = autopilot.describe()
            assert described["ticks"] == 1
            assert described["actions"].get("rebalance") == 1
        finally:
            cluster.close()
    finally:
        configure_telemetry(dots_stack.backend.config.telemetry, enabled=False)


def test_decision_state_guarded_by_the_lock(dots_stack):
    """Runtime twin of the ``lock-discipline`` static rule: with the
    autopilot's lock instrumented and its decision state flagged, a full
    control pass performs every write under the lock (no unguarded-write
    violations), while a bare write from outside raises."""
    # The raw factory, not ``threading.Lock``: under REPRO_LOCKWATCH the
    # session watch has patched the latter, and wrapping an
    # already-instrumented lock would feed the session's record-mode
    # watch instead of this test's raising one.
    import _thread

    from repro.analysis.lockwatch import (
        LockWatch,
        UnguardedWriteError,
        guard_attributes,
    )

    cluster = build_cluster(
        dots_stack.backend, shard_count=2, strategy="grid"
    )
    autopilot = ClusterAutopilot(cluster, clock=VirtualClock())
    try:
        watch = LockWatch()
        autopilot._lock = watch.wrap(_thread.allocate_lock(), "autopilot")
        guard_attributes(
            autopilot,
            autopilot._lock,
            [
                "_tick_count",
                "_armed",
                "_last_migration_ms",
                "_last_loads",
            ],
        )
        replay(cluster.router, hotspot_trace(dots_stack, cluster, steps=20))
        autopilot.tick()
        watch.verify()
        with pytest.raises(UnguardedWriteError, match="_armed"):
            autopilot._armed = False
    finally:
        cluster.close()
