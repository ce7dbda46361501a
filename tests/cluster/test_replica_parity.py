"""Replica failover parity: the acceptance bar of the replication rework.

A replicated cluster (2 shards × 2 replicas, 4 shards × 3 replicas) whose
replica 0 of *every* shard is fault-injected to fail each request must
return byte-identical dbox/tile payloads to a fault-free 1-replica cluster
built from the same backend, on both evaluation applications (usmap + EEG,
both database designs), and the router's stats must attribute every
failure to the broken replicas.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster
from repro.serving import FaultSchedule, fault_replica

from tests.cluster.conftest import parity_requests as _all_requests
from tests.cluster.conftest import payload_bytes as _payload_bytes


@pytest.mark.parametrize("stack_fixture", ["usmap_parity_stack", "eeg_parity_stack"])
@pytest.mark.parametrize("shard_count, replicas", [(2, 2), (4, 3)])
def test_failover_is_byte_identical_to_single_replica(
    request, stack_fixture, shard_count, replicas
):
    stack = request.getfixturevalue(stack_fixture)
    tile_sizes = stack.tile_sizes
    baseline = build_cluster(
        stack.backend, shard_count=shard_count, replicas=1, tile_sizes=tile_sizes
    )
    replicated = build_cluster(
        stack.backend,
        shard_count=shard_count,
        replicas=replicas,
        tile_sizes=tile_sizes,
    )
    try:
        replica_sets = replicated.router.replica_sets()
        assert set(replica_sets) == set(range(shard_count))
        # Replica 0 of every shard fails every request it is handed.
        for layer in replica_sets.values():
            fault_replica(layer, 0, FaultSchedule.fail_always())

        compared = 0
        for data_request in _all_requests(stack):
            healthy = baseline.router.handle(data_request)
            survived = replicated.router.handle(data_request)
            assert _payload_bytes(survived) == _payload_bytes(healthy), (
                f"failover payload diverged for {data_request}"
            )
            compared += 1
        assert compared > 0

        stats = replicated.router.stats
        # Failures are attributed to the broken replicas and nothing else.
        assert sum(layer.stats.failures_for(0) for layer in replica_sets.values()) > 0
        for shard_id, layer in replica_sets.items():
            assert all(
                layer.stats.failures_for(index) == 0 for index in range(1, replicas)
            )
            assert layer.stats.failures_for(0) == layer.stats.requests_for(0)
            # Every attempt on the dead replica was failed over, none lost.
            assert layer.stats.failovers == layer.stats.failures_for(0)
            # The healthy replicas served every scatter that hit the shard.
            assert sum(
                layer.stats.requests_for(index) for index in range(1, replicas)
            ) == stats.per_shard_requests.get(shard_id, 0)
    finally:
        baseline.close()
        replicated.close()


def test_replicated_cluster_without_faults_matches_baseline(usmap_parity_stack):
    """Replication alone must not change payloads (healthy-path parity)."""
    stack = usmap_parity_stack
    tile_sizes = stack.tile_sizes
    baseline = build_cluster(
        stack.backend, shard_count=2, replicas=1, tile_sizes=tile_sizes
    )
    replicated = build_cluster(
        stack.backend, shard_count=2, replicas=3, tile_sizes=tile_sizes
    )
    try:
        for data_request in _all_requests(stack):
            assert _payload_bytes(replicated.router.handle(data_request)) == (
                _payload_bytes(baseline.router.handle(data_request))
            )
        for layer in replicated.router.replica_sets().values():
            assert not any(layer.stats.per_replica_failures().values())
    finally:
        baseline.close()
        replicated.close()
