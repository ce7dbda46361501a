"""Debugging a slow step: tracing one pan session end to end.

The question every serving regression starts with is "where did my time
go?".  This walkthrough answers it with the telemetry plane:

1. build a 2-shard x 2-replica **worker-process** cluster with tracing on
   (every serving layer -- router cache, coalescer, scatter, replica
   attempts, the JSON wire, the worker-side query -- opens a timed span,
   and worker spans cross the socket back into the caller's trace);
2. replay a short pan session plus one revisited step, with a fault
   schedule slowing one replica of shard 0;
3. read the traces three ways: the wall-clock-slowest step as an
   indented span tree, the step that actually hit the injected fault
   (its replica_attempt span carries a ``fault_injected`` event), and
   the per-stage latency percentiles the registry accumulated.

The same tree is what ``GET /trace/<trace_id>`` serves over HTTP, and the
same percentiles back ``GET /metrics``; for offline exports
(``config.telemetry.export_path``) the ``python -m repro.telemetry.dump``
CLI renders exactly this view.

Run with::

    python examples/trace_session.py
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.bench.apps import build_eeg_backend, default_config
from repro.cluster import build_cluster
from repro.datagen.eeg import EEGSpec
from repro.metrics.timer import VirtualClock
from repro.net.protocol import DataRequest
from repro.serving.faults import FaultSchedule, fault_replica
from repro.serving.replica import ReplicaService
from repro.telemetry import get_registry, get_tracer
from repro.telemetry.dump import format_trace, trace_duration_ms


def pan_session(stack, steps: int = 8) -> list[DataRequest]:
    """A rightward pan across the temporal EEG canvas, then one revisit."""
    width, height = stack.canvas_width, stack.canvas_height
    window = width / 8.0
    stride = (width - window) / steps
    requests = [
        DataRequest(
            app_name="eeg", canvas_id="temporal", layer_index=0,
            granularity="box", xmin=step * stride, ymin=0.0,
            xmax=step * stride + window, ymax=height,
        )
        for step in range(steps)
    ]
    # The user pans back to where they started: this step repeats the
    # first viewport exactly, so the router cache answers it.
    return requests + [requests[0]]


def fault_events(trace: dict) -> list[tuple[str, dict]]:
    """(span name, event dict) pairs for every fault stamped in ``trace``."""
    return [
        (span["name"], event)
        for span in trace["spans"]
        for event in span["events"]
        if event["name"] == "fault_injected"
    ]


def main() -> None:
    spec = EEGSpec(channels=4, sample_rate_hz=32.0, duration_s=240.0)
    stack = build_eeg_backend(spec, config=default_config(viewport=512))

    # Step 1 -- a traced process cluster: telemetry=True configures the
    # process-wide tracer from config.telemetry and folds the flag into
    # the ShardSpec dumps, so the forked workers trace their side too.
    cluster = build_cluster(
        stack.backend, shard_count=2, replicas=2,
        worker_mode="processes", telemetry=True,
    )
    try:
        # Step 2 -- slow down one replica of shard 0 at the fault seam.
        # Latency faults advance the *injected* clock (nothing sleeps),
        # so they show up in traces as fault_injected events rather than
        # longer wall-clock spans.
        replica_set = cluster.shards[0].service
        assert isinstance(replica_set, ReplicaService)
        fault_replica(
            replica_set, 0, FaultSchedule.slow(40.0),
            clock=VirtualClock(),
        )

        for request in pan_session(stack):
            cluster.router.handle(request)
    finally:
        cluster.close()

    # Step 3a -- where did the wall time go?  Rank finished traces by
    # root-span duration.  The slowest steps are the cache misses that
    # fanned out to the workers (their trees reach rpc/execute spans);
    # the revisited step short-circuits at the router cache span.
    tracer = get_tracer()
    traces = sorted(tracer.traces(), key=trace_duration_ms, reverse=True)
    print(f"{len(traces)} traces; slowest step took "
          f"{trace_duration_ms(traces[0]):.2f} ms -- its span tree:\n")
    print(format_trace(traces[0]))
    fastest = traces[-1]
    print(f"\nfastest step ({trace_duration_ms(fastest):.2f} ms, "
          f"the revisit) stops at the cache:\n")
    print(format_trace(fastest))

    # Step 3b -- which steps hit the slow replica?  The injected fault is
    # visible *in the trace*: a fault_injected event on the attempt span.
    faulted = [trace for trace in traces if fault_events(trace)]
    print(f"\n{len(faulted)} of {len(traces)} steps hit the slow replica:")
    for trace in faulted:
        for span_name, event in fault_events(trace):
            print(f"  trace {trace['trace_id']}: {event['name']} on "
                  f"'{span_name}' (+{event['latency_ms']} virtual ms)")

    # Step 3c -- the aggregate view (what GET /metrics serves).
    print("\nper-stage latency percentiles:")
    for stage, snapshot in sorted(get_registry().snapshot().items()):
        print(f"  {stage:<16} n={snapshot['count']:<6.0f} "
              f"p50={snapshot['p50']:8.3f} ms  p99={snapshot['p99']:8.3f} ms")


if __name__ == "__main__":
    main()
