"""Adaptive repartitioning demo: a hotspot workload rebalanced live.

Builds the skewed dots application sharded 2 ways with a static grid,
replays a pan session confined to one shard's region (the "everyone pans
over Manhattan" traffic shape), shows the per-shard load skew the static
partitioning produces, then performs an **online** load-driven rebalance
to 4 shards — while a second session keeps issuing requests and checks
every payload stays byte-identical through the swap — and replays the
hotspot again to show the load spreading across the new splits.

Run with::

    python examples/rebalance_cluster.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

import json

from repro.bench.apps import build_dots_backend, default_config
from repro.cluster import build_cluster
from repro.datagen.synthetic import skewed_spec
from repro.net.protocol import DataRequest


def payload(response) -> bytes:
    return json.dumps(list(response.objects), sort_keys=True).encode("utf-8")


def main() -> int:
    """Run the demo; returns the payload mismatches seen during the swap."""
    spec = skewed_spec(
        num_points=20_000, canvas_width=16_384.0, canvas_height=8_192.0
    )
    stack = build_dots_backend(spec, config=default_config(viewport=1024))
    cluster = build_cluster(
        stack.backend, shard_count=2, strategy="grid"
    )
    router, rebalancer = cluster.router, cluster.rebalancer

    # A pan session confined to shard 0's region: the hotspot.
    region = cluster.partitionings["dots"].region(0).rect
    box_w, box_h = region.width / 8.0, region.height / 8.0
    hotspot = [
        DataRequest(
            canvas_id="dots", layer_index=0, granularity="box",
            xmin=(x := region.xmin + (step * 311.0) % (region.width - box_w)),
            ymin=(y := region.ymin + (step * 173.0) % (region.height - box_h)),
            xmax=x + box_w, ymax=y + box_h,
        )
        for step in range(120)
    ]

    for request in hotspot:
        router.handle(request)
    print(f"static grid @ 2 shards, hotspot session of {len(hotspot)} pans:")
    print(f"  per-shard load: {rebalancer.shard_loads()}")
    print(f"  skew (max/mean): {rebalancer.skew():.3f}"
          "  -> the operator asks for a rebalance")

    # Rebalance online while a concurrent session keeps reading.
    expected = [payload(router.handle(r)) for r in hotspot]
    mismatches = []

    def keep_reading() -> None:
        while not done.is_set():
            router.cache.clear()
            for request, want in zip(hotspot, expected):
                if payload(router.handle(request)) != want:
                    mismatches.append(request)

    done = threading.Event()
    reader = threading.Thread(target=keep_reading, daemon=True)
    reader.start()
    report = rebalancer.rebalance(4)
    done.set()
    reader.join()
    print(f"\nonline rebalance: {report.describe()}")
    print(f"  payload mismatches during the swap: {len(mismatches)}")

    router.stats.reset()
    router.cache.clear()
    for request in hotspot:
        router.handle(request)
    print(f"\nload-weighted splits @ 4 shards, same hotspot session:")
    print(f"  per-shard load: {rebalancer.shard_loads()}")
    print(f"  skew (max/mean): {rebalancer.skew():.3f}")
    cluster.close()
    return len(mismatches)


if __name__ == "__main__":
    sys.exit(main())
