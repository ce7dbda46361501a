"""The self-driving cluster: a hotspot shift detected and rebalanced.

The load-weighted re-split ``examples/rebalance_cluster.py`` did by
hand, the :class:`~repro.cluster.autopilot.ClusterAutopilot` does
unattended, at the same shard and replica counts.  This
walkthrough drives the control loop tick by tick on a virtual clock so
every decision is deterministic and narrated:

1. build the skewed dots application, sharded 2 ways with 2 replicas per
   shard, and put an autopilot over it;
2. concentrate a pan session on one shard (hotspot A) — the next tick
   observes the skew and performs an **autonomous online rebalance**;
3. show the stability machinery: a settled window re-arms the hysteresis
   trigger, and when the hotspot **shifts** to the other end of the
   canvas, the cooldown holds the thrash bound (no second migration
   until the window expires) before the loop converges again, with
   payloads byte-identical across every swap.

In production you would not tick by hand: ``build_service(...,
autopilot=True)`` (or ``config.cluster.autopilot.enabled``) attaches and
*starts* the same loop on a background thread at ``interval_s`` cadence.

Run with::

    python examples/autopilot_cluster.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench.apps import build_dots_backend, default_config
from repro.cluster import ClusterAutopilot, build_cluster
from repro.datagen.synthetic import skewed_spec
from repro.metrics.timer import VirtualClock
from repro.net.protocol import DataRequest


def payload(response) -> bytes:
    return json.dumps(list(response.objects), sort_keys=True).encode("utf-8")


def hotspot(cluster, region_index: int, steps: int = 80) -> list[DataRequest]:
    """A pan session confined to one shard region of the *current* epoch."""
    region = cluster.partitionings["dots"].region(region_index).rect
    box_w, box_h = region.width / 8.0, region.height / 8.0
    # Strictly inside the region: a box that touches the shard boundary
    # scatters to both neighbours, and those stray counts would dilute
    # the window skew right below the trigger threshold.
    x0, y0 = region.xmin + box_w / 2.0, region.ymin + box_h / 2.0
    span_x, span_y = region.width - 2.0 * box_w, region.height - 2.0 * box_h
    return [
        DataRequest(
            app_name="dots", canvas_id="dots", layer_index=0, granularity="box",
            xmin=(x := x0 + (step * 311.0) % span_x),
            ymin=(y := y0 + (step * 173.0) % span_y),
            xmax=x + box_w, ymax=y + box_h,
        )
        for step in range(steps)
    ]


def replay(router, requests) -> None:
    # Fresh scatters every time: the router cache would otherwise absorb
    # the repeats and hide the load from the autopilot's sensors.
    for request in requests:
        router.cache.clear()
        router.handle(request)


def main() -> int:
    """Run the walkthrough; returns the payload mismatches across swaps."""
    spec = skewed_spec(
        num_points=20_000, canvas_width=16_384.0, canvas_height=8_192.0
    )
    stack = build_dots_backend(spec, config=default_config(viewport=1024))
    cluster = build_cluster(
        stack.backend, shard_count=2, strategy="grid", replicas=2,
    )
    router, rebalancer = cluster.router, cluster.rebalancer
    clock = VirtualClock()
    pilot = ClusterAutopilot(cluster, clock=clock)
    cooldown_ms = pilot.config.cooldown_s * 1000.0
    threshold = rebalancer.skew_threshold

    print("phase 1 -- a hotspot forms, the autopilot rebalances")
    session_a = hotspot(cluster, 0)
    replay(router, session_a)
    print(f"  80 pans confined to shard 0's region; per-shard load "
          f"{rebalancer.shard_loads()} -> skew {rebalancer.skew():.3f} "
          f"(threshold {threshold})")
    for action in pilot.tick():
        print(f"  tick {action.tick}: {action.describe()}")
    replay(router, session_a)
    print(f"  same hotspot session on the new load-weighted boundaries: "
          f"load {rebalancer.shard_loads()} -> skew {rebalancer.skew():.3f}")

    print("\nphase 2 -- hysteresis re-arms, cooldown holds the thrash bound")
    clock.advance(cooldown_ms / 4)
    actions = pilot.tick()
    print(f"  settled window (skew < {threshold - pilot.config.hysteresis}):"
          f" trigger re-armed, actions taken: {len(actions)}")
    session_b = hotspot(cluster, 1)
    replay(router, session_b)
    actions = pilot.tick()
    print(f"  the hotspot SHIFTS to shard 1's region (skew back at "
          f"{threshold}); still inside the cooldown window -> "
          f"actions taken: {len(actions)} (no thrash)")
    expected = [payload(router.handle(r)) for r in session_b]
    clock.advance(cooldown_ms)
    replay(router, session_b)
    for action in pilot.tick():
        print(f"  cooldown expired; tick {action.tick}: {action.describe()}")
    router.cache.clear()
    mismatches = sum(
        payload(router.handle(request)) != want
        for request, want in zip(session_b, expected)
    )
    replay(router, session_b)
    print(f"  shifted hotspot after the second migration: "
          f"load {rebalancer.shard_loads()} -> skew {rebalancer.skew():.3f}; "
          f"payload mismatches across the swap: {mismatches}")

    print(f"\nautopilot summary: {pilot.describe()}")
    pilot.close()
    cluster.close()
    return mismatches


if __name__ == "__main__":
    sys.exit(main())
