"""Process-worker cluster demo: shards in real OS processes, killed live.

Builds the temporal EEG application twice — once with in-process thread
shards, once with one forked worker process per shard replica speaking the
wire envelope over localhost TCP — proves both topologies serve
byte-identical payloads, compares their wall-clock on the same pan
workload, then SIGKILLs one worker mid-session and shows the replica layer
failing over with the dead worker's breaker open.

Run with::

    python examples/worker_cluster.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench.apps import build_eeg_backend, default_config
from repro.cluster import build_cluster
from repro.datagen.eeg import EEGSpec
from repro.net.protocol import DataRequest
from repro.serving import kill_worker


def main() -> None:
    spec = EEGSpec(channels=4, sample_rate_hz=32.0, duration_s=240.0)
    stack = build_eeg_backend(spec, config=default_config(viewport=512))
    width, height = stack.canvas_width, stack.canvas_height
    window_ms = width / 8.0

    def requests(count: int = 16) -> list[DataRequest]:
        step = (width - window_ms) / count
        return [
            DataRequest(
                app_name="eeg", canvas_id=stack.canvas_id, layer_index=0,
                granularity="box", xmin=i * step, ymin=0.0,
                xmax=i * step + window_ms, ymax=height,
            )
            for i in range(count)
        ]

    def run(cluster, workload) -> tuple[float, bytes]:
        started = time.perf_counter()
        payloads = [
            json.dumps(list(cluster.router.handle(r).objects), sort_keys=True)
            for r in workload
        ]
        elapsed_ms = (time.perf_counter() - started) * 1000.0 / len(workload)
        return elapsed_ms, "".join(payloads).encode("utf-8")

    workload = requests()
    threads = build_cluster(stack.backend, shard_count=4, worker_mode="threads")
    processes = build_cluster(
        stack.backend, shard_count=4, replicas=2, worker_mode="processes"
    )
    try:
        print("worker processes:")
        for worker in processes.worker_pool.describe():
            print(f"  shard{worker['shard_id']}/replica{worker['replica_index']}: "
                  f"pid {worker['pid']} on port {worker['port']}")
        print("every worker's rebuilt index matched its spec's checksum at spawn "
              "(a mismatch fails the spawn)")

        thread_ms, thread_bytes = run(threads, workload)
        process_ms, process_bytes = run(processes, workload)
        print(f"threads:   {thread_ms:7.2f} ms/step")
        print(f"processes: {process_ms:7.2f} ms/step")
        print(f"payloads byte-identical: {thread_bytes == process_bytes}")

        handle = kill_worker(processes, shard_id=0, replica_index=0)
        print(f"\nSIGKILLed shard0/replica0 (pid {handle.pid})")
        # Pan inside shard 0's time range so the dead worker is actually hit.
        shard0_span = width / 4.0
        degraded = [
            DataRequest(
                app_name="eeg", canvas_id=stack.canvas_id, layer_index=0,
                granularity="box", xmin=i * 1000.0, ymin=0.0,
                xmax=i * 1000.0 + shard0_span / 2.0, ymax=height,
            )
            for i in range(6)
        ]
        run(processes, degraded)
        replica_set = processes.router.replica_sets()[0]
        state = "open" if replica_set.breaker_open(0) else "closed"
        print(f"served through the kill; shard0/replica0 breaker: {state}")
        print("shard0 failures per replica:",
              replica_set.stats.per_replica_failures())
    finally:
        threads.close()
        processes.close()
    alive = [h.alive for h in processes.worker_pool.handles]
    print(f"after close(): workers alive = {alive}")


if __name__ == "__main__":
    main()
