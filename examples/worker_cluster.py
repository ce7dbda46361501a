"""Process-worker cluster demo: shards in real OS processes, killed live.

Builds the temporal EEG application twice — once with in-process thread
shards, once with one forked worker process per shard replica speaking the
wire envelope over localhost TCP — proves both topologies serve
byte-identical payloads, compares their wall-clock on the same pan
workload, then SIGKILLs one worker mid-session and shows the replica layer
failing over with the dead worker's breaker open.  ``main()`` returns the
number of problems seen — unserved requests, payloads that differ from
the thread topology's, workers still alive after ``close()`` — 0 when
there were none.

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
from repro.errors import KyrixError
from repro.net.protocol import DataRequest
from repro.serving import kill_worker


def main() -> int:
    """Run the demo; returns unserved requests, payload mismatches and
    workers that outlived ``close()``, summed."""
    spec = EEGSpec(channels=4, sample_rate_hz=32.0, duration_s=240.0)
    stack = build_eeg_backend(spec, config=default_config(viewport=512))
    width, height = stack.canvas_width, stack.canvas_height
    window_ms = width / 8.0

    def requests(count: int = 16) -> list[DataRequest]:
        step = (width - window_ms) / count
        return [
            DataRequest(
                canvas_id=stack.canvas_id, layer_index=0,
                granularity="box", xmin=i * step, ymin=0.0,
                xmax=i * step + window_ms, ymax=height,
            )
            for i in range(count)
        ]

    def run(cluster, workload) -> tuple[float, list[bytes | None]]:
        """Mean ms per request and one payload per request (``None`` when
        the request failed)."""
        started = time.perf_counter()
        payloads: list[bytes | None] = []
        for request in workload:
            try:
                objects = list(cluster.router.handle(request).objects)
            except KyrixError as error:
                print(f"  unserved: {type(error).__name__}: {error}")
                payloads.append(None)
            else:
                payloads.append(json.dumps(objects, sort_keys=True).encode("utf-8"))
        elapsed_ms = (time.perf_counter() - started) * 1000.0 / len(workload)
        return elapsed_ms, payloads

    def differing(want: list[bytes | None], got: list[bytes | None]) -> int:
        """Requests both sides served with different payloads."""
        return sum(None not in pair and pair[0] != pair[1] for pair in zip(want, got))

    workload = requests()
    threads = build_cluster(stack.backend, shard_count=4, worker_mode="threads")
    processes = build_cluster(
        stack.backend, shard_count=4, replicas=2, worker_mode="processes"
    )
    pool = processes.worker_pool
    try:
        print("worker processes:")
        for worker in pool.describe():
            print(f"  shard{worker['shard_id']}/replica{worker['replica_index']}: "
                  f"pid {worker['pid']} on port {worker['port']}")
        print("every worker serves the shard index it inherited from the fork")

        thread_ms, thread_payloads = run(threads, workload)
        process_ms, process_payloads = run(processes, workload)
        mismatches = differing(thread_payloads, process_payloads)
        print(f"threads:   {thread_ms:7.2f} ms/step")
        print(f"processes: {process_ms:7.2f} ms/step")
        print(f"payload mismatches between the topologies: {mismatches}")

        handle = kill_worker(processes, shard_id=0, replica_index=0)
        print(f"\nSIGKILLed shard0/replica0 (pid {handle.pid})")
        # Pan inside shard 0's time range so the dead worker is actually hit.
        shard0_span = width / 4.0
        degraded = [
            DataRequest(
                canvas_id=stack.canvas_id, layer_index=0,
                granularity="box", xmin=i * 1000.0, ymin=0.0,
                xmax=i * 1000.0 + shard0_span / 2.0, ymax=height,
            )
            for i in range(6)
        ]
        _, killed_payloads = run(processes, degraded)
        _, reference_payloads = run(threads, degraded)
        killed_mismatches = differing(reference_payloads, killed_payloads)
        mismatches += killed_mismatches
        replica_set = processes.router.replica_sets()[0]
        state = "open" if replica_set.breaker_open(0) else "closed"
        print(f"served through the kill; shard0/replica0 breaker: {state}")
        print(f"payload mismatches through the kill: {killed_mismatches}")
        print("shard0 failures per replica:",
              replica_set.stats.per_replica_failures())
    finally:
        threads.close()
        processes.close()
    alive = [h.alive for h in pool.handles]
    print(f"after close(): workers alive = {alive}")
    unserved = sum(
        payloads.count(None)
        for payloads in (thread_payloads, process_payloads,
                         killed_payloads, reference_payloads)
    )
    return unserved + mismatches + sum(alive)


if __name__ == "__main__":
    sys.exit(main())
