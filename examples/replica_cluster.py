"""Replica failover demo: kill half the cluster mid-session, keep serving.

Builds a 2-shard cluster with two replicas per shard, pans across the
canvas, then fault-injects replica 0 of every shard to fail each request —
the session continues uninterrupted because the replica layer fails over to
the surviving copies, and the router's stats attribute every failure to the
dead replicas.

Run with::

    python examples/replica_cluster.py
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench import build_dots_application, default_config
from repro.cluster import ClusterRouter
from repro.compiler import compile_application
from repro.datagen import load_dots, uniform_spec
from repro.net.protocol import DataRequest
from repro.serving import FaultSchedule, build_service, fault_replica, unwrap
from repro.storage import Database


def main(num_points: int = 20_000) -> None:
    dataset = uniform_spec(
        num_points=num_points, canvas_width=8_192, canvas_height=4_096
    )
    config = default_config(viewport=1024)
    config.cluster.enabled = True
    config.cluster.shard_count = 2
    config.cluster.replicas = 2
    config.cluster.replica_policy = "least_inflight"
    database = Database(config.storage)
    load_dots(database, dataset)
    compiled = compile_application(build_dots_application(dataset, config))
    service = build_service(config, database=database, compiled=compiled)
    router = unwrap(service, ClusterRouter)
    print(f"cluster: {router.describe()['shard_count']} shards x "
          f"{router.describe()['replicas']} replicas "
          f"({router.describe()['replica_policy']})")

    def pan(start: int, steps: int) -> int:
        served = 0
        for step in range(start, start + steps):
            x = (step * 512.0) % (dataset.canvas_width - 1024.0)
            y = (step * 256.0) % (dataset.canvas_height - 1024.0)
            response = service.handle(
                DataRequest(
                    app_name=compiled.app_name, canvas_id="dots", layer_index=0,
                    granularity="box", xmin=x, ymin=y, xmax=x + 1024.0,
                    ymax=y + 1024.0,
                )
            )
            served += len(response.objects)
        return served

    print(f"healthy pan: {pan(0, 8):,} objects over 8 steps")

    for shard_id, layer in router.replica_sets().items():
        fault_replica(layer, 0, FaultSchedule.fail_always())
        print(f"killed shard {shard_id} replica 0")

    print(f"degraded pan: {pan(8, 8):,} objects over 8 steps "
          "(failover masked every fault)")
    for shard_id, layer in router.replica_sets().items():
        state = "open" if layer.breaker_open(0) else "closed"
        print(f"shard {shard_id} requests per replica:", layer.stats.per_replica_requests())
        print(f"shard {shard_id} failures per replica:", layer.stats.per_replica_failures())
        print(f"shard {shard_id} replica 0 breaker: {state}")
    service.close()


if __name__ == "__main__":
    main()
