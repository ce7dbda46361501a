"""Replica failover demo: kill half the cluster mid-session, keep serving.

Builds a 2-shard cluster with two replicas per shard, pans across the
canvas, then fault-injects replica 0 of every shard to fail each request
and pans the same path again — the session continues uninterrupted
because the replica layer fails over to the surviving copies, every
payload is byte-identical to the healthy pan's, and each replica set's
stats attribute every failure to the dead replicas.  ``main()`` returns
the number of problems seen (unserved requests plus payload mismatches),
0 when failover masked everything.

Run with::

    python examples/replica_cluster.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench import build_dots_application, default_config
from repro.cluster import ClusterRouter
from repro.compiler import compile_application
from repro.datagen import load_dots, uniform_spec
from repro.errors import KyrixError
from repro.net.protocol import DataRequest
from repro.serving import FaultSchedule, build_service, fault_replica, unwrap
from repro.storage import Database


def main(num_points: int = 20_000) -> int:
    """Run the demo; returns unserved requests plus payload mismatches."""
    dataset = uniform_spec(
        num_points=num_points, canvas_width=8_192, canvas_height=4_096
    )
    config = default_config(viewport=1024)
    config.cluster.enabled = True
    config.cluster.shard_count = 2
    config.cluster.replicas = 2
    database = Database(config.storage)
    load_dots(database, dataset)
    compiled = compile_application(build_dots_application(dataset, config))
    service = build_service(config, database=database, compiled=compiled)
    router = unwrap(service, ClusterRouter)
    print(f"cluster: {router.describe()['shard_count']} shards x "
          f"{router.describe()['replicas']} replicas")

    session = []
    for step in range(16):
        x = (step * 512.0) % (dataset.canvas_width - 1024.0)
        y = (step * 256.0) % (dataset.canvas_height - 1024.0)
        session.append(
            DataRequest(
                canvas_id="dots", layer_index=0,
                granularity="box", xmin=x, ymin=y, xmax=x + 1024.0,
                ymax=y + 1024.0,
            )
        )

    def pan() -> list[bytes | None]:
        """One payload per request, ``None`` for a request that failed."""
        # Cold router cache: every request reaches the replica sets.
        router.cache.clear()
        payloads: list[bytes | None] = []
        for request in session:
            try:
                objects = list(service.handle(request).objects)
            except KyrixError as error:
                print(f"  unserved: {type(error).__name__}: {error}")
                payloads.append(None)
            else:
                payloads.append(json.dumps(objects, sort_keys=True).encode("utf-8"))
        return payloads

    healthy = pan()
    print(f"healthy pan: {len(session)} steps, "
          f"{sum(p is not None for p in healthy)} served")

    for shard_id, layer in router.replica_sets().items():
        fault_replica(layer, 0, FaultSchedule.fail_always())
        print(f"killed shard {shard_id} replica 0")

    degraded = pan()
    unserved = healthy.count(None) + degraded.count(None)
    mismatches = sum(
        want is not None and got is not None and want != got
        for want, got in zip(healthy, degraded)
    )
    print(f"degraded pan: {len(session)} steps, "
          f"{sum(p is not None for p in degraded)} served "
          "(failover masked every fault)")
    print(f"payload mismatches against the healthy pan: {mismatches}")
    for shard_id, layer in router.replica_sets().items():
        state = "open" if layer.breaker_open(0) else "closed"
        print(f"shard {shard_id} requests per replica:", layer.stats.per_replica_requests())
        print(f"shard {shard_id} failures per replica:", layer.stats.per_replica_failures())
        print(f"shard {shard_id} replica 0 breaker: {state}")
    service.close()
    return unserved + mismatches


if __name__ == "__main__":
    sys.exit(main())
