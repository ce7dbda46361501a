"""The DataService protocol, the middleware stack and the build_service factory."""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import time

import pytest

from repro.bench.apps import build_dots_backend, default_config
from repro.cluster import ClusterRouter, build_cluster
from repro.client import KyrixFrontend
from repro.config import ClusterConfig
from repro.core.viewport import Viewport
from repro.datagen.synthetic import tiny_spec
from repro.errors import KyrixError
from repro.net.protocol import DataRequest, RowBatch
from repro.serving import (
    CachingService,
    CoalescingService,
    DataService,
    ReplicaService,
    SerializedService,
    TransportService,
    build_service,
    stack_layers,
    unwrap,
)


def _own_containers(index) -> list:
    """The lists, arrays and dicts an index is made of (not the keys in them)."""
    if index.kind == "rtree":
        return list(index._packed[:5])
    return [index._keys, index._rids]


def _second_value(spec: dataclasses.Field):
    """A valid non-default value for one scalar ``ClusterConfig`` field."""
    if isinstance(spec.default, str):
        return {
            "strategy": "kd",
            "worker_mode": "processes",
        }[spec.name]
    if isinstance(spec.default, bool):
        return not spec.default
    return spec.default + 1


#: One override per ``ClusterConfig`` field, derived from the dataclass so
#: the list cannot fall behind it.
OVERRIDES = {
    spec.name: _second_value(spec) for spec in dataclasses.fields(ClusterConfig)
}


class TestProtocol:
    def test_every_serving_endpoint_satisfies_the_protocol(self, dots_stack):
        backend = dots_stack.backend
        cluster = build_cluster(backend, shard_count=2)
        try:
            endpoints = [
                backend,
                cluster.router,
                CachingService(backend, entries=4),
                CoalescingService(backend),
                SerializedService(backend),
                TransportService(backend),
                ReplicaService([backend, backend]),
            ]
            for endpoint in endpoints:
                assert isinstance(endpoint, DataService), type(endpoint).__name__
        finally:
            cluster.close()

    def test_middleware_forwards_metadata(self, dots_stack):
        stacked = SerializedService(CachingService(dots_stack.backend, entries=4))
        assert stacked.compiled is dots_stack.backend.compiled
        assert stacked.config is dots_stack.backend.config

    def test_unwrap_and_stack_layers(self, dots_stack):
        caching = CachingService(dots_stack.backend, entries=4)
        outer = SerializedService(caching)
        assert unwrap(outer, CachingService) is caching
        assert unwrap(outer, SerializedService) is outer
        assert unwrap(outer) is dots_stack.backend
        assert stack_layers(outer) == [outer, caching, dots_stack.backend]
        assert unwrap(outer, TransportService) is None

    def test_unwrap_traverses_into_multi_child_layers(self, dots_stack):
        # A replica layer holds several children; unwrap must both find the
        # layer itself and dig *through* it into a replica's stack.
        replica_a = CachingService(dots_stack.backend, entries=2)
        replica_b = TransportService(dots_stack.backend)
        replica_layer = ReplicaService([replica_a, replica_b])
        outer = SerializedService(replica_layer)
        assert unwrap(outer, ReplicaService) is replica_layer
        assert replica_layer.replicas == [replica_a, replica_b]
        assert unwrap(outer, CachingService) is replica_a
        # The second branch is traversed too, not just the first.
        assert unwrap(outer, TransportService) is replica_b
        # kind=None still returns a terminal service (first branch).
        assert unwrap(outer) is unwrap(replica_a)

    def test_unwrap_negative_path_on_absent_layer_kinds(self, dots_stack):
        replica_layer = ReplicaService(
            [dots_stack.backend, dots_stack.backend]
        )
        outer = CoalescingService(CachingService(replica_layer, entries=2))
        # Kinds absent from every branch of the stack come back as None.
        assert unwrap(outer, TransportService) is None
        assert unwrap(outer, SerializedService) is None
        assert unwrap(dots_stack.backend, ReplicaService) is None


class TestCachingService:
    def test_hit_returns_fresh_response_with_cached_objects(self, dots_stack, box_request):
        service = CachingService(dots_stack.backend, entries=8)
        first = service.handle(box_request)
        assert first.from_cache is False
        second = service.handle(box_request)
        assert second.from_cache is True
        assert second.query_ms == 0.0
        assert second.queries_issued == 0
        assert second.objects == first.objects
        assert service.cache.stats.hits == 1

    def test_zero_entries_disables_caching(self, dots_stack, box_request):
        service = CachingService(dots_stack.backend, entries=0)
        assert service.handle(box_request).from_cache is False
        assert service.handle(box_request).from_cache is False
        assert service.cache.stats.hits == 0


#: Every shape ``build_service`` assembles: the single-backend stack, and a
#: cluster with its shards in process, behind the wire codec, in worker
#: processes and replicated.
TOPOLOGIES = {
    "single": {},
    "local_shards": {"shard_count": 2, "wire_shards": False},
    "wire_shards": {"shard_count": 2, "wire_shards": True},
    "processes": {"shard_count": 2, "worker_mode": "processes"},
    "replicas": {"shard_count": 2, "replicas": 2},
}


class TestRowsStayTuplesUntilTheEdge:
    """Below ``http_server`` nobody reads a row: what ``handle`` returns is a
    batch of the engine's tuples, and the caches and the frontend pass that
    one batch along — a hit builds nothing."""

    @pytest.fixture(params=TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
    def service(self, request, dots_stack):
        backend = dots_stack.backend
        service = build_service(backend.config, backend=backend, **request.param)
        yield service
        service.close()

    @pytest.fixture()
    def whole_canvas(self, dots_stack, box_request):
        plan = dots_stack.compiled.canvas_plan("dots")
        return dataclasses.replace(box_request, xmax=plan.width, ymax=plan.height)

    def test_no_topology_reads_a_row(self, service, whole_canvas):
        for from_cache in (False, True):  # the query, then the server cache's hit
            response = service.handle(whole_canvas)
            assert response.from_cache is from_cache
            assert isinstance(response.objects, RowBatch) and not response.objects.sparse
            assert len(response.objects) == 2_000
            assert all(type(row) is tuple for row in response.objects.rows)
        if response.shard_ms:
            assert len(response.shard_ms) == 2, "the box should cross the shard border"

    def test_every_cache_hands_back_the_first_readers_rows(self, service, whole_canvas):
        # On ``cluster_hot`` the median step *is* a router-cache hit: the
        # caches share the batch, and a dynamic-box layer shows it as it is.
        first_session = KyrixFrontend(service)
        first_session.load_canvas("dots", _viewport_over(whole_canvas))
        first = first_session.visible_objects[0]
        assert isinstance(first, RowBatch) and len(first) == 2_000
        server_hit = service.handle(_box_of(first_session, whole_canvas))
        assert server_hit.from_cache and server_hit.objects is first
        second_session = KyrixFrontend(service)
        second_session.load_canvas("dots", _viewport_over(whole_canvas))
        assert second_session.visible_objects[0] is first
        # ...and the session's own cache: pan away and back.
        frontend_hit, breakdown = first_session._issue_request(
            _box_of(first_session, whole_canvas)
        )
        assert breakdown.cache_hit and breakdown.requests == 0
        assert frontend_hit.objects is first

    def test_a_coalesced_follower_shares_the_leaders_batch(self, dots_stack, whole_canvas):
        release = threading.Event()
        service = CoalescingService(_Held(dots_stack.backend, release))
        answers: list = []
        threads = [
            threading.Thread(target=lambda: answers.append(service.handle(whole_canvas)))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        while service.coalescer.stats.followers < 1:  # the follower is parked
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        leader, follower = sorted(answers, key=lambda response: response.coalesced)
        assert follower.coalesced and not leader.coalesced
        assert follower.objects is leader.objects
        assert all(type(row) is tuple for row in leader.objects.rows)


class _Held(SerializedService):
    """Holds every ``handle`` until released, so a second caller coalesces."""

    def __init__(self, inner, release) -> None:
        super().__init__(inner)
        self._release = release

    def handle(self, request):
        assert self._release.wait(timeout=10)
        return super().handle(request)


def _viewport_over(request: DataRequest) -> Viewport:
    return Viewport(
        request.xmin, request.ymin, request.xmax - request.xmin, request.ymax - request.ymin
    )


def _box_of(frontend: KyrixFrontend, template: DataRequest) -> DataRequest:
    """The dynamic-box request ``frontend`` last issued (its cache's one key)."""
    box = frontend._boxes[0]
    return dataclasses.replace(
        template, xmin=box.xmin, ymin=box.ymin, xmax=box.xmax, ymax=box.ymax
    )


class TestBackendTerminal:
    def test_handle_always_runs_a_real_query(self, dots_stack, box_request):
        backend = dots_stack.backend
        before = backend.stats.queries_issued
        assert backend.handle(box_request).from_cache is False
        assert backend.handle(box_request).from_cache is False
        assert backend.stats.queries_issued == before + 2


class TestBuildService:
    def test_single_backend_when_cluster_disabled(self, dots_stack):
        config = dots_stack.backend.config
        service = build_service(config, backend=dots_stack.backend)
        assert stack_layers(service) == [service, dots_stack.backend]
        assert isinstance(service, CachingService)
        assert service.cache.capacity == config.cache.backend_entries

    def test_factory_accepts_its_own_output_as_backend(self, dots_stack):
        config = dots_stack.backend.config
        single = build_service(config, backend=dots_stack.backend)
        service = build_service(config, backend=single, shard_count=2)
        router = unwrap(service, ClusterRouter)
        try:
            assert router.cluster.source is dots_stack.backend
        finally:
            router.close()
        assert build_service(config, backend=single).inner is dots_stack.backend

    def test_cluster_router_when_enabled(self):
        spec = tiny_spec("uniform", num_points=1_000, seed=5)
        config = default_config(viewport=512)
        config.cluster.enabled = True
        config.cluster.shard_count = 2
        stack = build_dots_backend(spec, config=config)
        router = unwrap(stack.service, ClusterRouter)
        assert router is not None
        assert router.shard_count == 2
        assert stack.cluster is not None
        assert stack.cluster.router is router
        router.close()

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "cluster"])
    def test_zero_backend_entries_turns_the_server_cache_off(self, sharded, box_request):
        """``cache.backend_entries: 0`` is the one off-switch of a stack's
        server-side cache, whichever layer holds it: a repeated request is
        answered by a real query every time."""
        config = default_config(viewport=512)
        config.cache.backend_entries = 0
        config.cluster.enabled = sharded
        config.cluster.shard_count = 2
        stack = build_dots_backend(
            tiny_spec("uniform", num_points=1_000, seed=5), config=config
        )
        try:
            cache = stack.service.cache
            assert isinstance(stack.service, ClusterRouter) is sharded
            first = stack.service.handle(box_request)
            second = stack.service.handle(box_request)
            assert (first.from_cache, second.from_cache) == (False, False)
            assert second.objects == first.objects
            assert cache.capacity == 0 and cache.stats.hits == 0
        finally:
            stack.service.close()

    def test_shard_count_override_turns_sharding_on(self, dots_stack):
        service = build_service(
            dots_stack.backend.config, backend=dots_stack.backend, shard_count=2
        )
        router = unwrap(service, ClusterRouter)
        assert router is not None and router.shard_count == 2
        router.close()

    def test_replicas_override_builds_replica_sets(self, dots_stack):
        service = build_service(
            dots_stack.backend.config,
            backend=dots_stack.backend,
            shard_count=2,
            replicas=2,
        )
        router = unwrap(service, ClusterRouter)
        assert router is not None
        layer = unwrap(service, ReplicaService)
        assert layer is not None
        assert layer.replica_count == 2
        assert set(router.replica_sets()) == {0, 1}
        assert router.describe()["replicas"] == 2
        router.close()

    @pytest.mark.parametrize("field, value", sorted(OVERRIDES.items()))
    def test_every_override_lands_in_the_served_config(
        self, dots_stack, field, value
    ):
        """One effective configuration: what an override asked for is what
        ``router.config.cluster`` says is being served."""
        base = dots_stack.backend.config
        assert getattr(base.cluster, field) != value, "override must differ"
        overrides = {"shard_count": 2, field: value}
        service = build_service(base, backend=dots_stack.backend, **overrides)
        router = unwrap(service, ClusterRouter)
        try:
            assert getattr(router.config.cluster, field) == value
            assert router.cluster_config is router.config.cluster
            assert (
                router.config.cluster.shard_count
                == router.shard_count
                == overrides["shard_count"]
            )
            # The caller's configuration is not edited in place.
            assert getattr(base.cluster, field) != value
        finally:
            service.close()

    def test_unknown_override_fails_before_anything_is_built(self, dots_stack):
        import multiprocessing
        from dataclasses import astuple

        pager = dots_stack.backend.database.pager_stats
        pages_before = astuple(pager)
        workers_before = multiprocessing.active_children()
        with pytest.raises(TypeError, match="shard_cuont"):
            build_service(
                dots_stack.backend.config, backend=dots_stack.backend,
                shard_cuont=2, worker_mode="processes",
            )
        # No shard indexed (not one source page was read), no worker forked.
        assert astuple(pager) == pages_before
        assert multiprocessing.active_children() == workers_before

    def test_the_telemetry_override_lands_in_the_served_config(self, dots_stack):
        from repro.telemetry import configure as configure_telemetry

        base = dots_stack.backend.config
        service = build_service(
            base, backend=dots_stack.backend, shard_count=2, telemetry=True
        )
        try:
            config = unwrap(service, ClusterRouter).config
            assert config.telemetry.enabled and not base.telemetry.enabled
        finally:
            service.close()
            configure_telemetry(base.telemetry, enabled=False)

    def test_served_config_follows_an_online_rebalance(self, dots_stack):
        service = build_service(
            dots_stack.backend.config, backend=dots_stack.backend,
            shard_count=2, replicas=2,
        )
        router = unwrap(service, ClusterRouter)
        try:
            report = router.cluster.rebalancer.rebalance(4)
            assert report.swapped
            served = router.config.cluster
            assert (served.shard_count, served.replicas) == (4, 2)
            assert router.shard_count == 4
            replica_sets = router.replica_sets()
            assert len(replica_sets) == 4
            assert all(layer.replica_count == 2 for layer in replica_sets.values())
        finally:
            service.close()

    @pytest.mark.parametrize("overrides", [{}, {"shard_count": 2}], ids=["single", "cluster"])
    def test_a_served_row_costs_a_tenth_of_a_tracked_object_and_160_index_bytes(self, overrides):
        # The cost model the packed indexes are held to (docs/architecture.md,
        # "Packed indexes"): what a full collection walks must not grow with
        # the data -- so nothing needs hiding from the collector -- and an
        # index entry is a few array slots, not a handful of objects.
        def build(num_points):
            stack = build_dots_backend(
                tiny_spec("uniform", num_points=num_points, seed=7),
                config=default_config(viewport=512),
            )
            return stack.backend, build_service(stack.backend.config, backend=stack.backend, **overrides)

        build(50)[1].close()  # imports and one-time module state are not per-row costs
        gc.collect()
        tracked_before = len(gc.get_objects())
        source, service = build(20_000)
        try:
            gc.collect()
            grown = len(gc.get_objects()) - tracked_before
            databases = {
                id(layer.database): layer.database
                for layer in stack_layers(source) + stack_layers(service)
                if hasattr(layer, "database")
            }
            indexed = [
                table
                for database in databases.values()
                for table in map(database.table, database.table_names)
                if table.indexes
            ]
            rows = sum(map(len, indexed))
            assert rows >= 20_000 * (1 + bool(overrides))  # shards index their own copies
            assert grown <= 0.1 * rows, f"{grown / rows:.3f} tracked objects per indexed row"
            index_bytes = sum(
                sys.getsizeof(container)
                for table in indexed
                for info in table.indexes.values()
                for container in _own_containers(info.index)
            )
            assert index_bytes <= 160 * rows, f"{index_bytes / rows:.1f} index bytes per indexed row"
            assert gc.get_freeze_count() == 0
        finally:
            service.close()

    def test_requires_backend_or_database(self):
        with pytest.raises(KyrixError):
            build_service(default_config())

    def test_builds_and_precomputes_from_database_and_compiled(self):
        from repro.bench.apps import build_dots_application
        from repro.compiler import compile_application
        from repro.datagen.synthetic import load_dots
        from repro.storage.database import Database

        spec = tiny_spec("uniform", num_points=500, seed=9)
        config = default_config(viewport=256)
        database = Database(config.storage)
        load_dots(database, spec)
        compiled = compile_application(build_dots_application(spec, config))
        service = build_service(config, database=database, compiled=compiled)
        frontend = KyrixFrontend(service)
        frontend.load_initial_canvas()
        assert frontend.metrics.steps[0].requests >= 1
        # The factory precomputed the backend: a full-canvas box sees every dot.
        from repro.net.protocol import DataRequest

        full = service.handle(
            DataRequest(
                app_name=compiled.app_name,
                canvas_id="dots",
                layer_index=0,
                granularity="box",
                xmin=0.0,
                ymin=0.0,
                xmax=spec.canvas_width,
                ymax=spec.canvas_height,
            )
        )
        assert len(full.objects) == spec.num_points
