"""`unwrap` / `stack_layers` traversal over every serving topology.

The static analyser (`repro.analysis`) and every debugging session reason
about composed stacks through :func:`repro.serving.stack_layers` and
:func:`repro.serving.unwrap`; these tests pin the traversal order for each
topology the factory can build — threads/wire/processes × replicas — to the
layer diagram in ROADMAP.md, so the linter's model of the stack and the
stack itself cannot drift apart silently.
"""

from __future__ import annotations

import pytest

from repro.bench.apps import build_dots_backend, default_config
from repro.cluster import ClusterRouter
from repro.datagen.synthetic import tiny_spec
from repro.server.backend import KyrixBackend
from repro.serving import (
    build_service,
    stack_layers,
    unwrap,
)
from repro.serving.middleware import CachingService, SerializedService
from repro.serving.replica import ReplicaService
from repro.serving.transport import RemoteBackendStub, TransportService

SHARDS = 2
REPLICAS = 2


def _cluster_stack(**overrides):
    spec = tiny_spec("uniform", num_points=400, seed=11)
    config = default_config(viewport=256)
    stack = build_dots_backend(spec, config=config)
    service = build_service(
        config,
        backend=stack.backend,
        precompute=False,
        shard_count=SHARDS,
        **overrides,
    )
    return service


def _layer_types(service):
    return [type(layer).__name__ for layer in stack_layers(service)]


def _caches(service):
    return [layer for layer in stack_layers(service) if hasattr(layer, "cache")]


class TestSingleBackendTopology:
    def test_cached_backend_is_the_single_backend_stack(self):
        spec = tiny_spec("uniform", num_points=400, seed=11)
        stack = build_dots_backend(spec, config=default_config(viewport=256))
        assert _layer_types(stack.service) == ["CachingService", "KyrixBackend"]
        # One server-side cache, and it is the endpoint's.
        assert _caches(stack.service) == [stack.service]
        assert unwrap(stack.service) is stack.backend
        assert unwrap(stack.service, KyrixBackend) is stack.backend
        assert unwrap(stack.service, ClusterRouter) is None


class TestThreadTopologies:
    def test_threads_single_replica_without_wire(self):
        service = _cluster_stack(wire_shards=False)
        try:
            # ROADMAP: ClusterRouter -> per shard SerializedService -> engine.
            assert _layer_types(service) == (
                ["ClusterRouter"] + ["SerializedService", "KyrixBackend"] * SHARDS
            )
            assert unwrap(service, ClusterRouter) is service
            assert unwrap(service, TransportService) is None
        finally:
            service.close()

    def test_threads_single_replica_with_wire(self):
        service = _cluster_stack(wire_shards=True)
        try:
            # The wire hop sits above each shard's serialization lock.
            assert _layer_types(service) == (
                ["ClusterRouter"]
                + ["TransportService", "SerializedService", "KyrixBackend"] * SHARDS
            )
        finally:
            service.close()

    def test_threads_replicated_per_replica_stacks(self):
        service = _cluster_stack(wire_shards=True, replicas=REPLICAS)
        try:
            # The same chain as a single replica, N times behind a set.
            per_replica = ["TransportService", "SerializedService", "KyrixBackend"]
            assert _layer_types(service) == (
                ["ClusterRouter"]
                + (["ReplicaService"] + per_replica * REPLICAS) * SHARDS
            )
            replica_layer = unwrap(service, ReplicaService)
            assert isinstance(replica_layer, ReplicaService)
            assert len(replica_layer.children) == REPLICAS
        finally:
            service.close()

    @pytest.mark.parametrize("replicas", [1, REPLICAS])
    @pytest.mark.parametrize("wire", [False, True])
    def test_every_topology_has_the_same_shard_chain_and_one_cache(
        self, replicas, wire
    ):
        service = _cluster_stack(wire_shards=wire, replicas=replicas)
        try:
            router = unwrap(service, ClusterRouter)
            for branch in router.children:
                for stack in branch.children if replicas > 1 else (branch,):
                    assert _layer_types(stack)[int(wire):] == [
                        "SerializedService", "KyrixBackend"
                    ]
            # Nothing below the router caches.
            assert _caches(service) == [router]
            assert unwrap(service, CachingService) is None
        finally:
            service.close()

    def test_replicas_share_the_shard_engine(self):
        service = _cluster_stack(wire_shards=False, replicas=REPLICAS)
        try:
            router = unwrap(service, ClusterRouter)
            for shard, branch in zip(router.shards, router.children):
                serialized = [
                    layer
                    for layer in stack_layers(branch)
                    if isinstance(layer, SerializedService)
                ]
                assert len(serialized) == REPLICAS
                # Replica branches are independent stacks over one index.
                engines = {id(layer.inner) for layer in serialized}
                assert engines == {id(shard.backend)}
        finally:
            service.close()


class TestProcessTopologies:
    def test_processes_single_replica(self):
        service = _cluster_stack(worker_mode="processes")
        try:
            # The stub is the terminal parent-side layer: the rest of the
            # stack (LocalTransport -> SerializedService over the
            # worker's own rebuilt KyrixBackend) lives across the
            # process boundary and is invisible to traversal by design.
            assert _layer_types(service) == (
                ["ClusterRouter"] + ["RemoteBackendStub"] * SHARDS
            )
            assert unwrap(service, RemoteBackendStub) is service.children[0]
            assert unwrap(service, KyrixBackend) is None
        finally:
            service.close()

    def test_processes_replicated(self):
        service = _cluster_stack(worker_mode="processes", replicas=REPLICAS)
        try:
            assert _layer_types(service) == (
                ["ClusterRouter"]
                + (["ReplicaService"] + ["RemoteBackendStub"] * REPLICAS) * SHARDS
            )
        finally:
            service.close()


class TestTraversalContract:
    def test_stack_layers_is_preorder_first_branch_first(self):
        service = _cluster_stack(wire_shards=True)
        try:
            layers = stack_layers(service)
            assert layers[0] is service
            router = unwrap(service, ClusterRouter)
            first_branch = router.children[0]
            assert layers[1] is first_branch
            # unwrap(kind=None) lands on the first branch's terminal layer.
            terminal = unwrap(service)
            assert isinstance(terminal, KyrixBackend)
            assert terminal is stack_layers(first_branch)[-1]
        finally:
            service.close()
