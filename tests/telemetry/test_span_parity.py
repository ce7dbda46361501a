"""Cross-topology trace parity and the socket-crossing acceptance test.

The tracing plane must not observe different serving behaviour than it
reports: the ``wire`` (in-process JSON transport) and ``processes`` (forked
workers over localhost TCP) topologies compose the *same* per-replica
serving stack, so the same request stream must yield byte-identical
payloads **and** identical span trees — same span names, same parent/child
structure — with only the timings differing.  And a process-topology trace
must genuinely cross the socket: worker-side spans (``execute``) carry the
router-side trace id, and the root span's direct children account for at
least 90% of its duration (nothing substantial happens untraced).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cluster import build_cluster
from repro.telemetry import configure, get_tracer

from tests.cluster.conftest import (
    build_eeg_parity_stack,
    parity_requests,
    payload_bytes,
)

#: The two topologies whose serving stacks are structurally identical
#: (stub -> transport -> caching -> serialized -> query core).
WIRE_TOPOLOGIES = {
    "wire": {"worker_mode": "threads", "wire_shards": True},
    "processes": {"worker_mode": "processes"},
}


@pytest.fixture(scope="module")
def parity_stack():
    return build_eeg_parity_stack()


@pytest.fixture()
def clean_tracer():
    yield
    configure(enabled=False)


def _span_tree(trace: dict) -> tuple:
    """The timing-free identity of a trace: nested, order-insensitive names."""
    spans = trace["spans"]
    known = {span["span_id"] for span in spans}
    children: dict = {}
    roots = []
    for span in spans:
        if span["parent_id"] in known:
            children.setdefault(span["parent_id"], []).append(span)
        else:
            roots.append(span)

    def canonical(span) -> tuple:
        kids = tuple(
            sorted(canonical(child) for child in children.get(span["span_id"], []))
        )
        return (span["name"], kids)

    return tuple(sorted(canonical(root) for root in roots))


def _run_traced(stack, requests, overrides):
    cluster = build_cluster(
        stack.backend,
        shard_count=2,
        replicas=2,
        tile_sizes=stack.tile_sizes,
        telemetry=True,
        **overrides,
    )
    try:
        payloads = [payload_bytes(cluster.router.handle(r)) for r in requests]
    finally:
        cluster.close()
    return payloads, get_tracer().traces()


def test_wire_and_process_topologies_trace_identically(parity_stack, clean_tracer):
    requests = parity_requests(parity_stack)
    payloads: dict[str, list[bytes]] = {}
    trees: dict[str, list[tuple]] = {}
    for topology, overrides in WIRE_TOPOLOGIES.items():
        topo_payloads, traces = _run_traced(parity_stack, requests, overrides)
        payloads[topology] = topo_payloads
        trees[topology] = [_span_tree(trace) for trace in traces]
        assert len(traces) == len(requests)
    assert payloads["wire"] == payloads["processes"]
    assert trees["wire"] == trees["processes"]


def test_responses_stay_trace_free_above_the_transport(parity_stack, clean_tracer):
    # Worker-side spans travel in their own slot of the reply and go to the
    # tracer; a traced response is byte-identical to an untraced one, its
    # measured time aside.
    requests = parity_requests(parity_stack)[:4]
    answers = {}
    for telemetry in (False, True):
        cluster = build_cluster(
            parity_stack.backend,
            shard_count=2,
            tile_sizes=parity_stack.tile_sizes,
            worker_mode="processes",
            telemetry=telemetry,
        )
        try:
            answers[telemetry] = [
                dataclasses.replace(cluster.router.handle(request), query_ms=0.0).to_json()
                for request in requests
            ]
        finally:
            cluster.close()
    assert any('"name": "execute"' in json.dumps(trace) for trace in get_tracer().traces())
    assert answers[True] == answers[False]


def test_process_trace_crosses_the_socket_boundary(parity_stack, clean_tracer):
    """The ISSUE acceptance bar: 2 shards x 2 replicas, worker processes."""
    requests = parity_requests(parity_stack)
    cluster = build_cluster(
        parity_stack.backend,
        shard_count=2,
        replicas=2,
        tile_sizes=parity_stack.tile_sizes,
        worker_mode="processes",
        telemetry=True,
    )
    try:
        for request in requests:
            cluster.router.handle(request)
    finally:
        cluster.close()

    traces = get_tracer().traces()
    assert len(traces) == len(requests)
    crossed = 0
    for trace in traces:
        spans = trace["spans"]
        known = {span["span_id"] for span in spans}
        roots = [span for span in spans if span["parent_id"] not in known]
        assert len(roots) == 1, "every request produces exactly one trace root"
        root = roots[0]
        assert root["name"] == "request"
        # Every span — including those timed inside the worker process —
        # carries the router-side trace id.
        assert all(span["trace_id"] == trace["trace_id"] for span in spans)
        executes = [span for span in spans if span["name"] == "execute"]
        if executes:
            crossed += 1
            # Worker-side spans hang off the rpc span's context, so the
            # parent chain of an execute span reaches the root.
            by_id = {span["span_id"]: span for span in spans}
            for execute in executes:
                node = execute
                hops = 0
                while node["parent_id"] in by_id and hops < 32:
                    node = by_id[node["parent_id"]]
                    hops += 1
                assert node is root
        # Sum of the root's direct children covers >= 90% of the root span:
        # the trace accounts for where the time went.
        child_ms = sum(
            span["duration_ms"]
            for span in spans
            if span["parent_id"] == root["span_id"]
        )
        assert child_ms >= 0.9 * root["duration_ms"], (
            f"untraced gap too large: children {child_ms:.3f} ms of "
            f"root {root['duration_ms']:.3f} ms"
        )
    # Router cache hits legitimately skip the wire; everything else crossed.
    assert crossed > 0, "no trace carried worker-side execute spans"
