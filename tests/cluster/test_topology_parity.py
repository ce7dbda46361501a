"""Cross-topology parity: threads, wire-stub and worker processes agree.

The acceptance bar of the process-worker rework: for every deployment
topology the cluster supports —

* ``threads`` — in-process shard stacks called directly (``wire_shards``
  off),
* ``wire`` — in-process shard stacks behind the ``LocalTransport`` /
  ``RemoteBackendStub`` binary wire (the default),
* ``processes`` — one forked worker process per shard replica behind a
  ``SocketTransport`` speaking length-prefixed frames on localhost TCP —

the same request stream must produce **byte-identical** ``DataResponse``
payloads and exactly the same traffic attribution (router-cache hits and
misses, scatter counts, per-shard requests, fan-out histogram, per-replica
attempts, each read from the layer that counts it) on both
evaluation applications (usmap + EEG), at 2 and 4 shards, with 1 and 2
replicas per shard.  The router cannot tell the topologies apart, and the
stats prove none of them drops, duplicates or re-routes a single request.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, replace

import pytest

from repro.bench.apps import build_dots_backend, default_config
from repro.bench.experiments import replay
from repro.cluster import ClusterStats, build_cluster
from repro.datagen.synthetic import tiny_spec
from repro.server.schemes import dbox_scheme
from repro.serving import collect_wire_stats

from tests.cluster.conftest import parity_requests, payload_bytes

#: topology name -> build_cluster keyword overrides.
TOPOLOGIES = {
    "threads": {"worker_mode": "threads", "wire_shards": False},
    "wire": {"worker_mode": "threads", "wire_shards": True},
    "processes": {"worker_mode": "processes"},
}


def _attribution(router) -> dict:
    """The traffic-attribution identity of one router: its cache's counters,
    its ``ClusterStats`` and each replica set's own counters."""
    cache = router.cache.stats
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        **asdict(router.stats),
        "replica_sets": {
            shard_id: replica_set.stats.snapshot()
            for shard_id, replica_set in router.replica_sets().items()
        },
    }


@pytest.mark.parametrize("stack_fixture", ["usmap_parity_stack", "eeg_parity_stack"])
@pytest.mark.parametrize("shard_count", [2, 4])
@pytest.mark.parametrize("replicas", [1, 2])
def test_topologies_are_byte_identical_and_attribute_identically(
    request, stack_fixture, shard_count, replicas
):
    stack = request.getfixturevalue(stack_fixture)
    requests = parity_requests(stack)
    payloads: dict[str, list[bytes]] = {}
    attributions: dict[str, dict] = {}
    wire_bytes: dict[str, int] = {}

    for topology, overrides in TOPOLOGIES.items():
        cluster = build_cluster(
            stack.backend,
            shard_count=shard_count,
            replicas=replicas,
            tile_sizes=stack.tile_sizes,
            **overrides,
        )
        try:
            payloads[topology] = [
                payload_bytes(cluster.router.handle(r)) for r in requests
            ]
            attributions[topology] = _attribution(cluster.router)
            wire_bytes[topology] = collect_wire_stats(cluster.router).bytes_total
        finally:
            cluster.close()

    # Byte-identity across topologies: every deployment shape returns the
    # exact same payload bytes for the same request stream.
    for topology in TOPOLOGIES:
        assert payloads[topology] == payloads["threads"], (
            f"{topology} payloads diverged from the threads topology "
            f"at {shard_count} shards x {replicas} replicas"
        )
        assert attributions[topology] == attributions["threads"], (
            f"{topology} attribution diverged at "
            f"{shard_count} shards x {replicas} replicas"
        )

    # One wire: the frames a worker's socket carries are the frames the
    # in-process transport pair exchanges, byte count for byte count.
    assert wire_bytes["threads"] == 0
    assert wire_bytes["processes"] == wire_bytes["wire"] > 0

    # Against the unsharded backend, the gathered tuple *sets* must match
    # exactly (gather order is shard-id order, so bytes are compared across
    # topologies above, not against the single backend's natural order).
    for data_request, cluster_payload in zip(requests, payloads["threads"]):
        single = stack.backend.handle(data_request)
        gathered = json.loads(cluster_payload.decode("utf-8"))
        assert sorted(o["tuple_id"] for o in gathered) == sorted(
            o["tuple_id"] for o in single.objects
        ), f"cluster tuple set diverged from single backend for {data_request}"

    # The matrix only proves anything if shards actually held the traffic.
    reference = attributions["threads"]
    assert reference["scatter_gathers"] > 0
    assert sum(reference["per_shard_requests"].values()) == reference["shard_queries"]
    if replicas > 1:
        assert len(reference["replica_sets"]) == shard_count
        for shard_id, counts in reference["replica_sets"].items():
            attempts = sum(counts.get(f"replica{r}_requests", 0) for r in range(replicas))
            assert attempts == counts["requests"] == (
                reference["per_shard_requests"].get(shard_id, 0)
            )


def test_cluster_stats_reset_zeroes_every_field():
    """``ClusterStats`` are traffic counters and nothing else: whatever is
    true of the built topology lives on the generation, so a reset has no
    field to spare."""
    stats = ClusterStats()
    for spec in fields(stats):
        if isinstance(getattr(stats, spec.name), dict):
            getattr(stats, spec.name)[0] = 7
        else:
            setattr(stats, spec.name, 7)
    stats.reset()
    assert stats == ClusterStats()


@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_a_replay_after_a_cache_reset_is_cold(topology):
    """``replay``'s cold start reaches every cache, wherever the engines run.

    The router's cache is the only one on a cluster's serving path, so a
    second replay of the same trace must miss it on every step and query
    the shard engines again — including engines in worker processes, which
    the parent cannot reach into.
    """
    config = default_config(viewport=512)
    config.cluster = replace(
        config.cluster, enabled=True, shard_count=2, **TOPOLOGIES[topology]
    )
    stack = build_dots_backend(
        tiny_spec("uniform", num_points=1_000, seed=5), config=config
    )
    positions = [(0.0, 0.0), (4096.0, 0.0), (4096.0, 2048.0)]
    router = stack.cluster.router
    stats = router.stats
    try:
        queried = [stats.shard_queries]
        first = replay(stack, dbox_scheme(), positions)
        queried.append(stats.shard_queries)
        second = replay(stack, dbox_scheme(), positions)
        queried.append(stats.shard_queries)
    finally:
        stack.service.close()
    assert not any(step.cache_hit for step in second.metrics.steps)
    assert router.cache.stats.hits == 0
    assert queried[2] - queried[1] == queried[1] - queried[0] > 0
    assert [s.objects_fetched for s in second.metrics.steps] == [
        s.objects_fetched for s in first.metrics.steps
    ]


def test_process_topology_rejects_bad_worker_config(usmap_parity_stack):
    from repro.errors import KyrixError

    with pytest.raises(KyrixError):
        build_cluster(
            usmap_parity_stack.backend, shard_count=2, worker_mode="fibers"
        )
